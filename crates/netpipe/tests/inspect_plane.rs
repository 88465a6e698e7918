//! The inspector plane, end to end: a manifold of stats sources —
//! serving tier, links, pools, kernel, marshalling, feedback — behind
//! one [`StatsRegistry`], exported over a control channel and fetched
//! by an [`InspectClient`]. The same generic check runs over all four
//! transports (the observability twin of the transport-conformance
//! suite), and under SimTransport virtual time the snapshot JSON is
//! byte-for-byte reproducible.

use infopipes::{BufferPool, StatsRegistry};
use mbthread::{Kernel, KernelConfig};
use netpipe::inspect::{self, InspectClient, InspectServer};
use netpipe::{
    Acceptor, InProcLink, InProcTransport, SaturationProbe, ServeConfig, SessionRegistry,
    SimConfig, SimTransport, TcpTransport, Transport, UdpTransport, Unmarshal,
};
use parking_lot::Mutex;
use std::sync::Arc;

fn sim_seed() -> u64 {
    std::env::var("SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A small, fully scripted stats manifold: two admitted sessions that
/// received one broadcast frame, a pool with one allocating acquire, an
/// unmarshal stage, a feedback loop's counters, and a saturation probe.
/// Everything it does is synchronous, so every sampled value is
/// deterministic.
struct Manifold {
    stats: StatsRegistry,
    _sessions: SessionRegistry<InProcLink>,
    _client_ends: Vec<InProcLink>,
}

impl Manifold {
    /// `full`: also register the kernel and process-global sources,
    /// whose counters depend on scheduling and on other tests in this
    /// process — coherent, but not run-to-run reproducible.
    fn build(full: Option<&Kernel>) -> Manifold {
        let stats = StatsRegistry::new();

        let inproc = InProcTransport::new();
        let acceptor = inproc.listen("sessions").expect("listen");
        let bound = acceptor.local_addr();
        let sessions = SessionRegistry::new(ServeConfig::default());
        let mut client_ends = Vec::new();
        for _ in 0..2 {
            let client = inproc.connect(&bound).expect("connect");
            let server = acceptor.accept().expect("accept");
            sessions.admit(server);
            client_ends.push(client);
        }
        let payload = netpipe::wire::to_payload(&7u32).expect("encode");
        sessions.broadcast(&payload);
        inspect::register_registry_stats(&stats, "sessions", &sessions);
        inspect::register_link(&stats, "session-link-0", &client_ends[0]);

        let pool = BufferPool::with_classes(&[256], 4 * 256);
        let _allocating = pool.acquire(100);
        inspect::register_pool(&stats, "rx-pool", &pool);

        let unmarshal = Unmarshal::<u32>::new("um");
        inspect::register_unmarshal(&stats, "um", &unmarshal.stats_handle());

        let loop_stats = Arc::new(Mutex::new(feedback::LoopStats {
            readings: 4,
            commands: 1,
        }));
        inspect::register_loop_stats(&stats, "drop-loop", &loop_stats);

        inspect::register_saturation(&stats, "send-probe", &SaturationProbe::default());

        if let Some(kernel) = full {
            inspect::register_kernel(&stats, "kern", kernel);
            inspect::register_process_globals(&stats);
        }

        Manifold {
            stats,
            _sessions: sessions,
            _client_ends: client_ends,
        }
    }
}

/// The generic conformance check: serve the manifold on `transport`,
/// fetch twice, and assert one coherent snapshot covering every
/// subsystem.
fn check_inspect<T: Transport>(transport: &T, addr: &str, kernel: &Kernel) {
    let manifold = Manifold::build(Some(kernel));
    let acceptor = transport.listen(addr).expect("listen");
    let bound = acceptor.local_addr();
    let mut server = InspectServer::spawn(acceptor, manifold.stats.clone());

    let client = InspectClient::connect(transport, &bound).expect("connect");
    // `fetch` refuses a snapshot of any schema version but this client's.
    let snap = client.fetch().expect("fetch");

    let subsystems: Vec<&str> = snap.sources.iter().map(|s| s.subsystem.as_str()).collect();
    for want in [
        "core",
        "feedback",
        "kernel",
        "marshal",
        "pool",
        "serve",
        "transport",
    ] {
        assert!(
            subsystems.contains(&want),
            "snapshot must cover the {want} subsystem, got {subsystems:?}"
        );
    }

    // Serving tier: aggregates and the per-session roster agree.
    assert_eq!(snap.value("sessions", "accepted_total"), Some(2.0));
    assert_eq!(snap.value("sessions", "active"), Some(2.0));
    assert_eq!(snap.value("sessions", "enqueued_total"), Some(2.0));
    let sessions = snap.source("sessions").expect("sessions source");
    assert_eq!(sessions.entities.len(), 2, "both sessions in the roster");

    // Pool, marshalling, feedback, probes.
    assert_eq!(snap.value("rx-pool", "misses"), Some(1.0));
    assert_eq!(snap.value("um", "decoded"), Some(0.0));
    assert_eq!(snap.value("drop-loop", "readings"), Some(4.0));
    assert_eq!(snap.value("send-probe", "saturation"), Some(0.0));
    assert!(snap.value("kern", "threads_spawned").is_some());
    assert!(snap.value("process", "payload_copies").is_some());

    // Deterministic ordering: sources sorted by (subsystem, name).
    let keys: Vec<(String, String)> = snap
        .sources
        .iter()
        .map(|s| (s.subsystem.clone(), s.source.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "sources must arrive sorted");

    // A second fetch observes a strictly newer registry sequence.
    let again = client.fetch().expect("second fetch");
    assert!(again.seq > snap.seq, "seq must advance per snapshot");

    server.shutdown();
}

#[test]
fn inproc_inspect_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    check_inspect(&InProcTransport::new(), "inspect", &kernel);
    kernel.shutdown();
}

#[test]
fn sim_inspect_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    let sim = SimTransport::new(
        &kernel,
        SimConfig {
            seed: sim_seed(),
            ..SimConfig::default()
        },
    );
    check_inspect(&sim, "inspect", &kernel);
    kernel.shutdown();
}

#[test]
fn tcp_inspect_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    check_inspect(&TcpTransport::new(), "127.0.0.1:0", &kernel);
    kernel.shutdown();
}

#[test]
fn udp_inspect_conforms() {
    let kernel = Kernel::new(KernelConfig::default());
    check_inspect(&UdpTransport::new(), "127.0.0.1:0", &kernel);
    kernel.shutdown();
}

/// One complete run — manifold, sim server on a virtual-time kernel,
/// client fetch — rendered to JSON.
fn sim_snapshot_json() -> String {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let sim = SimTransport::new(
        &kernel,
        SimConfig {
            seed: sim_seed(),
            ..SimConfig::default()
        },
    );
    // Kernel/process sources are excluded: their counters depend on
    // scheduling and on unrelated tests in this process.
    let manifold = Manifold::build(None);
    let acceptor = sim.listen("inspect").expect("listen");
    let bound = acceptor.local_addr();
    let mut server = InspectServer::spawn(acceptor, manifold.stats.clone());
    let client = InspectClient::connect(&sim, &bound).expect("connect");
    let snap = client.fetch().expect("fetch");
    server.shutdown();
    kernel.shutdown();
    inspect::to_json(&snap)
}

#[test]
fn sim_snapshots_are_deterministic() {
    let first = sim_snapshot_json();
    let second = sim_snapshot_json();
    assert_eq!(
        first, second,
        "two virtual-time runs must produce byte-identical snapshots"
    );
}

/// The snapshot JSON is pinned: the renderer, the schema and the
/// manifold's sources render exactly what the committed file holds.
#[test]
fn sim_snapshot_json_matches_the_committed_rendering() {
    let golden = include_str!("golden/inspect_sim_snapshot.json");
    assert_eq!(sim_snapshot_json(), golden.trim_end());
}
