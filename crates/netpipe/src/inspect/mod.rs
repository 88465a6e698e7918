//! Live inspector: the unified observability plane.
//!
//! Every stats producer in the stack — the serving tier's
//! [`SessionRegistry`], per-link
//! [`LinkStats`](crate::LinkStats), buffer pools, the
//! mbthread kernel, unmarshal counters, feedback loops, and the
//! process-wide payload-copy counter — registers a named, typed source
//! in one [`StatsRegistry`]. A single
//! [`StatsRegistry::snapshot`](infopipes::StatsRegistry::snapshot) then
//! yields one coherent, deterministic-order view of the whole manifold.
//!
//! This module provides the three pieces that turn the registry into a
//! *live* inspector:
//!
//! 1. **Registration helpers** ([`register_registry_stats`],
//!    [`register_link`], [`register_pool`], [`register_kernel`],
//!    [`register_unmarshal`], [`register_loop_stats`],
//!    [`register_saturation`], [`register_process_globals`]) that adapt
//!    each subsystem's native stats type to the registry's
//!    metric/entity model under a stable subsystem label.
//! 2. A **versioned wire schema** ([`WireSnapshot`], [`SCHEMA_VERSION`])
//!    framing snapshots as [`Frame::Control`](crate::Frame) payloads via
//!    the [`crate::wire`] codec, plus hand-built JSON and table
//!    renderings.
//! 3. A **control-channel server and client** ([`InspectServer`],
//!    [`InspectClient`]) running the request/reply exchange over *any*
//!    [`Transport`]
//!    (inproc, sim, TCP, UDP) — the same transport-agnosticism the
//!    remote factory protocol established for data, applied to
//!    observability.
//!
//! Sampling is pull-based and cheap: nothing is recorded until a
//! snapshot is requested, and every sampler reads atomics or takes a
//! short-lived snapshot lock, so an idle inspector costs nothing on the
//! data path.
//!
//! [`Transport`]: crate::Transport

mod schema;
mod server;

pub use schema::{WireEntity, WireMetric, WireSnapshot, WireSource, WireValue, SCHEMA_VERSION};
pub use server::{InspectClient, InspectError, InspectServer};

use crate::marshal::UnmarshalCounters;
use crate::serve::SessionRegistry;
use crate::transport::{Link, SaturationProbe};
use feedback::LoopStats;
use infopipes::{BufferPool, EntitySample, Metric, SourceBody, SourceId, StatsRegistry};
use mbthread::Kernel;
use parking_lot::Mutex;
use std::sync::Arc;

/// Subsystem label for serving-tier sources.
const SUBSYSTEM_SERVE: &str = "serve";
/// Subsystem label for transport sources (links, saturation probes).
const SUBSYSTEM_TRANSPORT: &str = "transport";
/// Subsystem label for buffer pools.
const SUBSYSTEM_POOL: &str = "pool";
/// Subsystem label for the mbthread kernel.
const SUBSYSTEM_KERNEL: &str = "kernel";
/// Subsystem label for the marshalling layer.
const SUBSYSTEM_MARSHAL: &str = "marshal";
/// Subsystem label for feedback loops.
const SUBSYSTEM_FEEDBACK: &str = "feedback";
/// Subsystem label for process-wide core counters.
const SUBSYSTEM_CORE: &str = "core";

/// Registers a serving-tier [`SessionRegistry`] under `name`.
///
/// Aggregate metrics mirror
/// [`RegistryStats`](crate::RegistryStats); each resident
/// session appears as an entity (id = session id) with its
/// [`SessionSnapshot`](crate::SessionSnapshot) detail, so
/// evicted-and-reaped sessions drop out of the roster while the
/// `*_total` counters keep counting them.
pub fn register_registry_stats<L: Link>(
    stats: &StatsRegistry,
    name: impl Into<String>,
    sessions: &SessionRegistry<L>,
) -> SourceId {
    let sessions = sessions.clone();
    stats.register(name, SUBSYSTEM_SERVE, move || {
        let s = sessions.stats();
        let metrics = vec![
            Metric::counter("accepted_total", "sessions", s.accepted_total),
            Metric::counter("evicted_total", "sessions", s.evicted_total),
            Metric::gauge("active", "sessions", s.active as f64),
            Metric::gauge("draining", "sessions", s.draining as f64),
            Metric::gauge("evicted_resident", "sessions", s.evicted_resident as f64),
            Metric::gauge("queued_frames", "frames", s.queued_frames as f64),
            Metric::counter("enqueued_total", "frames", s.enqueued_total),
            Metric::counter("sent_total", "frames", s.sent_total),
            Metric::counter("shed_total", "frames", s.shed_total),
            Metric::counter("thinned_total", "frames", s.thinned_total),
        ];
        let entities = sessions
            .sessions()
            .into_iter()
            .map(|snap| EntitySample {
                id: snap.id.to_string(),
                metrics: vec![
                    Metric::text("peer", snap.peer),
                    Metric::text("state", snap.state.to_string()),
                    Metric::gauge("queued", "frames", snap.queued as f64),
                    Metric::gauge("drop_level", "level", f64::from(snap.drop_level)),
                    Metric::counter("enqueued", "frames", snap.enqueued),
                    Metric::counter("sent", "frames", snap.sent),
                    Metric::counter("shed", "frames", snap.shed),
                    Metric::counter("thinned", "frames", snap.thinned),
                ],
            })
            .collect();
        SourceBody { metrics, entities }
    })
}

/// Registers one transport link's [`LinkStats`](crate::LinkStats)
/// under `name`.
pub fn register_link<L: Link>(
    stats: &StatsRegistry,
    name: impl Into<String>,
    link: &L,
) -> SourceId {
    let link = link.clone();
    stats.register(name, SUBSYSTEM_TRANSPORT, move || {
        let s = link.stats();
        let peer = link.peer();
        SourceBody::metrics(vec![
            Metric::text("peer", format!("{}://{}", peer.scheme(), peer.addr())),
            Metric::counter("sent", "frames", s.sent),
            Metric::counter("delivered", "frames", s.delivered),
            Metric::counter("dropped", "frames", s.dropped),
            Metric::counter("refused", "frames", s.refused),
            Metric::counter("bytes_sent", "bytes", s.bytes_sent),
            Metric::counter("wire_writes", "syscalls", s.wire_writes),
            Metric::counter("rx_shed", "frames", s.rx_shed),
        ])
    })
}

/// Registers a [`BufferPool`]'s counters under `name`, including the
/// derived `miss_rate` gauge congestion controllers consume (reading
/// [`feedback::readings::POOL_MISS`]).
pub fn register_pool(
    stats: &StatsRegistry,
    name: impl Into<String>,
    pool: &BufferPool,
) -> SourceId {
    let pool = pool.clone();
    stats.register(name, SUBSYSTEM_POOL, move || {
        let s = pool.stats();
        SourceBody::metrics(vec![
            Metric::counter("hits", "acquires", s.hits),
            Metric::counter("misses", "acquires", s.misses),
            Metric::counter("oversize", "acquires", s.oversize),
            Metric::gauge("outstanding", "buffers", s.outstanding as f64),
            Metric::gauge("pooled", "buffers", s.pooled as f64),
            Metric::gauge("miss_rate", "fraction", s.miss_rate()),
        ])
    })
}

/// Registers an mbthread [`Kernel`]'s
/// [`KernelStats`](mbthread::KernelStats) counters under `name`.
pub fn register_kernel(
    stats: &StatsRegistry,
    name: impl Into<String>,
    kernel: &Kernel,
) -> SourceId {
    let kernel = kernel.clone();
    stats.register(name, SUBSYSTEM_KERNEL, move || {
        SourceBody::metrics(
            kernel
                .stats()
                .counters()
                .iter()
                .map(|(n, v)| Metric::counter(*n, "events", *v))
                .collect(),
        )
    })
}

/// Registers an [`Unmarshal`](crate::Unmarshal) stage's counters under
/// `name` (take the handle with
/// [`Unmarshal::stats_handle`](crate::Unmarshal::stats_handle)).
pub fn register_unmarshal(
    stats: &StatsRegistry,
    name: impl Into<String>,
    counters: &Arc<UnmarshalCounters>,
) -> SourceId {
    let counters = Arc::clone(counters);
    stats.register(name, SUBSYSTEM_MARSHAL, move || {
        let mut metrics = vec![
            Metric::counter("decoded", "items", counters.decoded()),
            Metric::counter("errors", "items", counters.errors()),
        ];
        if let Some(loc) = counters.location() {
            metrics.push(Metric::text("location", loc));
        }
        SourceBody::metrics(metrics)
    })
}

/// Registers a [`FeedbackLoop`](feedback::FeedbackLoop)'s
/// [`LoopStats`] under `name` (the shared handle the loop constructor
/// returns).
pub fn register_loop_stats(
    stats: &StatsRegistry,
    name: impl Into<String>,
    loop_stats: &Arc<Mutex<LoopStats>>,
) -> SourceId {
    let loop_stats = Arc::clone(loop_stats);
    stats.register(name, SUBSYSTEM_FEEDBACK, move || {
        let s = *loop_stats.lock();
        SourceBody::metrics(vec![
            Metric::counter("readings", "events", s.readings),
            Metric::counter("commands", "events", s.commands),
        ])
    })
}

/// Registers a [`SaturationProbe`]'s last completed send-saturation
/// window under `name` as a `saturation` gauge — the registry-side
/// twin of the [`feedback::readings::SEND_SATURATION`] reading a
/// [`NetSendEnd`](crate::NetSendEnd) reports in-band.
pub fn register_saturation(
    stats: &StatsRegistry,
    name: impl Into<String>,
    probe: &SaturationProbe,
) -> SourceId {
    let probe = probe.clone();
    stats.register(name, SUBSYSTEM_TRANSPORT, move || {
        SourceBody::metrics(vec![Metric::gauge("saturation", "fraction", probe.get())])
    })
}

/// Registers the process-wide core counters (today:
/// [`payload_copy_count`](infopipes::payload_copy_count), the zero-copy
/// regression tripwire) under the source name `process`.
pub fn register_process_globals(stats: &StatsRegistry) -> SourceId {
    stats.register("process", SUBSYSTEM_CORE, move || {
        SourceBody::metrics(vec![Metric::counter(
            "payload_copies",
            "copies",
            infopipes::payload_copy_count(),
        )])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use infopipes::StatsRegistry;

    #[test]
    fn pool_and_globals_register_and_sample() {
        let stats = StatsRegistry::new();
        let pool = BufferPool::with_classes(&[64], 4);
        register_pool(&stats, "rx-pool", &pool);
        register_process_globals(&stats);

        let _buf = pool.acquire(32);
        let snap = stats.snapshot();
        assert_eq!(snap.value("rx-pool", "misses"), Some(1.0));
        assert!(snap.value("process", "payload_copies").is_some());
        let pool_src = snap.source("rx-pool").unwrap();
        assert_eq!(pool_src.subsystem, SUBSYSTEM_POOL);
    }

    #[test]
    fn kernel_counters_appear_under_kernel_subsystem() {
        let stats = StatsRegistry::new();
        let kernel = Kernel::new(mbthread::KernelConfig::default());
        register_kernel(&stats, "kern", &kernel);
        let snap = stats.snapshot();
        let src = snap.source("kern").unwrap();
        assert_eq!(src.subsystem, SUBSYSTEM_KERNEL);
        assert!(src.metric("context_switches").is_some());
        assert!(src.metric("threads_spawned").is_some());
        assert!(src.metric("dispatcher_wakeups").is_some());
    }
}
