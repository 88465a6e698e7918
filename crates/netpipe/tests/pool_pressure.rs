//! Pressure signals through the unified observability plane: the pool's
//! miss rate, a UDP link's receive-side sheds, and a real send end's
//! saturation all land in one [`StatsRegistry`], one [`RegistrySensor`]
//! turns them into named readings, and one
//! [`UnifiedCongestionController`] fuses them under priority rules — a
//! single loop: registry → sensor → controller → `SetDropLevel`.

use feedback::{readings, Controller, RegistrySensor, UnifiedCongestionController};
use infopipes::helpers::IterSource;
use infopipes::{BufferPool, ControlEvent, FreePump, Pipeline, StatsRegistry};
use mbthread::{Kernel, KernelConfig};
use netpipe::{
    inspect, Acceptor, Frame, InProcTransport, Link, Marshal, NetSendEnd, PayloadBytes, Transport,
    UdpTransport,
};
use std::time::{Duration, Instant};

/// Feeds every reading from one sensor sweep to the controller,
/// returning the last command it emitted (if any).
fn feed(
    sensor: &mut RegistrySensor,
    controller: &mut UnifiedCongestionController,
) -> Option<ControlEvent> {
    let mut last = None;
    for reading in sensor.sample() {
        if let Some(cmd) = controller.observe(&reading) {
            last = Some(cmd);
        }
    }
    last
}

/// A pool whose buffers never come home misses on every acquisition;
/// the registry's `miss_rate` gauge becomes the [`readings::POOL_MISS`]
/// reading, which the standard policy caps at level 1.
#[test]
fn pool_miss_rate_drives_the_drop_level() {
    let stats = StatsRegistry::new();
    let pool = BufferPool::with_classes(&[256], 1);
    inspect::register_pool(&stats, "rx-pool", &pool);
    let mut sensor = RegistrySensor::new(&stats).gauge("rx-pool", "miss_rate", readings::POOL_MISS);
    let mut controller = UnifiedCongestionController::standard();

    // Warm state: one buffer recycling in and out — after the cold-start
    // miss, every acquisition hits and the rate decays below threshold.
    for _ in 0..8 {
        drop(pool.acquire(64).seal());
    }
    assert_eq!(feed(&mut sensor, &mut controller), None, "hits are calm");
    assert_eq!(controller.level(), 0);

    // Consumers hold every payload: each acquisition misses, and the
    // miss rate climbs past the controller's threshold.
    let mut held = Vec::new();
    for _ in 0..16 {
        held.push(pool.acquire(64).seal());
    }
    assert_eq!(
        feed(&mut sensor, &mut controller),
        Some(ControlEvent::SetDropLevel(1)),
        "memory pressure must raise the drop level"
    );
    // A capped secondary signal can hold level 1 but never escalate
    // beyond it, no matter how long the pressure lasts.
    for _ in 0..4 {
        assert_eq!(feed(&mut sensor, &mut controller), None);
    }
    assert_eq!(controller.level(), 1);
    assert_eq!(controller.signal_level(readings::POOL_MISS), Some(1));
    drop(held);
}

/// A stalled UDP receiver sheds arrivals into `rx_shed`; the registry's
/// link source feeds the controller through a **delta** probe, so the
/// cumulative counter becomes per-window shed activity — and calm
/// windows walk the level back down.
#[test]
fn udp_rx_shed_drives_the_drop_level() {
    let transport = UdpTransport::new();
    let acceptor = transport.listen("127.0.0.1:0").unwrap();
    let client = transport.connect(&acceptor.local_addr()).unwrap();
    let server = acceptor.accept().unwrap();

    // Nobody calls `server.recv`: the bounded receive queue fills and
    // everything past the bound is shed (and counted).
    for _ in 0..2048 {
        assert!(client
            .send(Frame::Data(PayloadBytes::from(vec![7u8; 8])))
            .accepted());
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().rx_shed == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The reader thread may still be shedding what the socket buffered:
    // let the counter settle, or a late shed lands in a window the
    // recovery below needs calm.
    let mut link_stats = server.stats();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let later = server.stats();
        let settled = later.rx_shed == link_stats.rx_shed;
        link_stats = later;
        if settled {
            break;
        }
    }
    assert!(
        link_stats.rx_shed > 0,
        "overflow must register as sheds: {link_stats:?}"
    );
    assert!(
        link_stats.dropped >= link_stats.rx_shed,
        "sheds are a subset of drops: {link_stats:?}"
    );

    let stats = StatsRegistry::new();
    inspect::register_link(&stats, "udp-rx", &server);
    let mut sensor = RegistrySensor::new(&stats).delta("udp-rx", "rx_shed", readings::UDP_RX_SHED);
    let mut controller = UnifiedCongestionController::standard();

    assert_eq!(
        feed(&mut sensor, &mut controller),
        Some(ControlEvent::SetDropLevel(1)),
        "receive-side sheds must raise the drop level"
    );

    // Traffic stopped: the delta probe reports zero sheds per window,
    // and after the rule's patience the level comes back down.
    assert_eq!(feed(&mut sensor, &mut controller), None);
    assert_eq!(feed(&mut sensor, &mut controller), None);
    assert_eq!(
        feed(&mut sensor, &mut controller),
        Some(ControlEvent::SetDropLevel(0)),
        "calm windows must recover the level"
    );

    // A reading the policy has no rule for is ignored — signals are
    // matched by name, so one event stream can carry many gauges.
    let unrelated = feedback::SensorReading {
        name: "unrelated-reading".into(),
        value: 1.0,
    };
    assert_eq!(controller.observe(&unrelated), None);
}

/// The end-to-end fusion the unified controller exists for: a real
/// [`NetSendEnd`] saturating against a tiny undrained ring AND real
/// pool misses, both sampled from one registry by one sensor, fused by
/// one controller. Send saturation (primary) escalates to level 2;
/// memory pressure (secondary, capped) holds level 1 — and recovery
/// follows the slowest pressured signal.
#[test]
fn unified_controller_fuses_send_and_memory_pressure() {
    let kernel = Kernel::new(KernelConfig::virtual_time());
    {
        // A 4-slot ring that nobody drains: the send end sees Saturated
        // and Dropped almost immediately.
        let transport = InProcTransport::with_capacity(4);
        let acceptor = transport.listen("congested").unwrap();
        let link = transport.connect("congested").unwrap();
        let _remote_end = acceptor.accept().unwrap();

        let send_end = NetSendEnd::new("send", link.clone())
            .with_congestion_reports(readings::SEND_SATURATION, 16);
        let probe = send_end.saturation_probe();

        let stats = StatsRegistry::new();
        inspect::register_saturation(&stats, "send-probe", &probe);
        let pool = BufferPool::with_classes(&[256], 1);
        inspect::register_pool(&stats, "rx-pool", &pool);

        let pipeline = Pipeline::new(&kernel, "producer");
        let src = pipeline.add_producer("src", IterSource::new("src", 0u32..400));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let marshal = pipeline.add_function("marshal", Marshal::<u32>::new("marshal"));
        let send = pipeline.add_consumer("send", send_end);
        let _ = src >> pump >> marshal >> send;

        let running = pipeline.start().unwrap();
        running.start_flow().unwrap();
        running.wait_quiescent();

        // The link really pushed back, and the probe exposes the last
        // completed saturation window to the registry.
        assert!(link.stats().dropped > 0, "the tiny ring must shed");
        assert!(
            probe.get() > 0.5,
            "saturation probe must see the pressure: {}",
            probe.get()
        );

        // Memory pressure too: every acquisition misses.
        let mut held = Vec::new();
        for _ in 0..16 {
            held.push(pool.acquire(64).seal());
        }

        // One sensor, one controller, two live signals.
        let mut sensor = RegistrySensor::new(&stats)
            .gauge("send-probe", "saturation", readings::SEND_SATURATION)
            .gauge("rx-pool", "miss_rate", readings::POOL_MISS);
        let mut controller = UnifiedCongestionController::standard();

        let first = feed(&mut sensor, &mut controller);
        assert_eq!(first, Some(ControlEvent::SetDropLevel(1)));
        let second = feed(&mut sensor, &mut controller);
        assert_eq!(
            second,
            Some(ControlEvent::SetDropLevel(2)),
            "sustained saturation must escalate past the capped signal"
        );
        assert_eq!(controller.level(), 2);
        assert_eq!(
            controller.signal_level(readings::SEND_SATURATION),
            Some(2),
            "the primary signal reaches the full range"
        );
        assert_eq!(
            controller.signal_level(readings::POOL_MISS),
            Some(1),
            "the capped secondary stops at level 1"
        );
        drop(held);
    }
    kernel.shutdown();
}
