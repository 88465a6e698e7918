//! A process-wide stats registry: the one place every subsystem's
//! counters can be read from.
//!
//! The middleware accumulates observability state in many small structs —
//! link counters, session rosters, pool hit rates, kernel activity,
//! feedback-loop tallies — each owned by the layer that produces it.
//! Operating a pipeline (and closing feedback loops over more than one
//! signal) needs them in one place. A [`StatsRegistry`] is that place:
//! producers register a named **source** backed by a cheap snapshot
//! closure, and [`StatsRegistry::snapshot`] samples every source into one
//! [`StatsSnapshot`].
//!
//! Sources are sampled, never pushed: registering costs one boxed
//! closure, and a producer that was never asked for a snapshot pays
//! nothing on its hot path. Closures should read atomics or take a
//! short-lived lock — the registry holds no lock of its own while
//! sampling, so a slow source delays only its own snapshot.
//!
//! Snapshots are deterministic: sources are reported sorted by
//! `(subsystem, name)`, so two snapshots of the same quiescent process
//! render identically (the inspector's wire schema and the simulator
//! tests rely on this).
//!
//! The snapshot tree is serializable as it stands: the inspector sends a
//! [`StatsSnapshot`] over the wire, so its field and variant order is
//! that wire format.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One sampled value: monotone counter, instantaneous gauge, or label.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A monotonically non-decreasing count (frames sent, bytes, errors).
    Counter(u64),
    /// An instantaneous level (fill fraction, miss rate, queue depth).
    Gauge(f64),
    /// A non-numeric annotation (peer address, lifecycle state).
    Text(String),
}

impl MetricValue {
    /// The numeric value, if this metric has one.
    #[must_use]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Counter(v) => Some(*v as f64),
            MetricValue::Gauge(v) => Some(*v),
            MetricValue::Text(_) => None,
        }
    }
}

/// A named, typed measurement with its unit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within its source (e.g. `"sent"`).
    pub name: String,
    /// Unit label (e.g. `"frames"`, `"bytes"`, `"fraction"`, `""`).
    pub unit: String,
    /// The sampled value.
    pub value: MetricValue,
}

impl Metric {
    /// A counter metric.
    #[must_use]
    pub fn counter(name: impl Into<String>, unit: &'static str, value: u64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    #[must_use]
    pub fn gauge(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A text metric.
    #[must_use]
    pub fn text(name: impl Into<String>, value: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            unit: String::new(),
            value: MetricValue::Text(value.into()),
        }
    }
}

/// Metrics for one entity in a source's roster (one session of a
/// registry, one lane of a fan-out) — sources with per-entity detail
/// report one sample per entity alongside their aggregate metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EntitySample {
    /// Entity id, unique within the source (e.g. a session id).
    pub id: String,
    /// The entity's metrics.
    pub metrics: Vec<Metric>,
}

/// What one source reports per sample: aggregate metrics plus an
/// optional per-entity roster.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SourceBody {
    /// Aggregate metrics.
    pub metrics: Vec<Metric>,
    /// Per-entity detail (empty for scalar sources).
    pub entities: Vec<EntitySample>,
}

impl SourceBody {
    /// A body of aggregate metrics only.
    #[must_use]
    pub fn metrics(metrics: Vec<Metric>) -> SourceBody {
        SourceBody {
            metrics,
            entities: Vec::new(),
        }
    }
}

impl From<Vec<Metric>> for SourceBody {
    fn from(metrics: Vec<Metric>) -> SourceBody {
        SourceBody::metrics(metrics)
    }
}

/// One source's contribution to a [`StatsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SourceSample {
    /// The source's registered name (e.g. `"broadcast-link"`).
    pub source: String,
    /// The producing subsystem (e.g. `"transport"`, `"serve"`, `"pool"`).
    pub subsystem: String,
    /// Aggregate metrics.
    pub metrics: Vec<Metric>,
    /// Per-entity detail (empty for scalar sources).
    pub entities: Vec<EntitySample>,
}

impl SourceSample {
    /// Looks up an aggregate metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A point-in-time sample of every registered source.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// 1-based snapshot sequence number of the producing registry.
    pub seq: u64,
    /// All sources, sorted by `(subsystem, source)`.
    pub sources: Vec<SourceSample>,
}

impl StatsSnapshot {
    /// Looks up a source by name.
    #[must_use]
    pub fn source(&self, name: &str) -> Option<&SourceSample> {
        self.sources.iter().find(|s| s.source == name)
    }

    /// The numeric value of `metric` in `source`, if both exist.
    #[must_use]
    pub fn value(&self, source: &str, metric: &str) -> Option<f64> {
        self.source(source)?.metric(metric)?.value.as_f64()
    }
}

/// Identifies a registered source.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SourceId(u64);

type Sampler = Box<dyn Fn() -> SourceBody + Send + Sync>;

struct SourceEntry {
    name: String,
    subsystem: String,
    sampler: Sampler,
}

#[derive(Default)]
struct Inner {
    sources: Mutex<Vec<Arc<SourceEntry>>>,
    next_id: AtomicU64,
    snapshots: AtomicU64,
}

/// The registry itself: cheaply cloneable, clones share the source list.
///
/// ```
/// use infopipes::{Metric, StatsRegistry};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let stats = StatsRegistry::new();
/// let sent = Arc::new(AtomicU64::new(0));
/// let probe = Arc::clone(&sent);
/// stats.register("uplink", "transport", move || {
///     vec![Metric::counter("sent", "frames", probe.load(Ordering::Relaxed))].into()
/// });
/// sent.store(7, Ordering::Relaxed);
/// let snap = stats.snapshot();
/// assert_eq!(snap.value("uplink", "sent"), Some(7.0));
/// ```
#[derive(Clone, Default)]
pub struct StatsRegistry {
    inner: Arc<Inner>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Registers a named source under a subsystem. The sampler runs on
    /// every [`snapshot`](StatsRegistry::snapshot); it must be cheap and
    /// must not call back into this registry. Registering a name that is
    /// already present replaces the old source (a reconnected producer
    /// supersedes its stale registration).
    pub fn register(
        &self,
        name: impl Into<String>,
        subsystem: impl Into<String>,
        sampler: impl Fn() -> SourceBody + Send + Sync + 'static,
    ) -> SourceId {
        let id = SourceId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = Arc::new(SourceEntry {
            name: name.into(),
            subsystem: subsystem.into(),
            sampler: Box::new(sampler),
        });
        let mut sources = self.inner.sources.lock();
        sources.retain(|s| s.name != entry.name);
        sources.push(entry);
        id
    }

    /// The number of registered sources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.sources.lock().len()
    }

    /// Whether no source is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples every source. The source list is cloned out under the
    /// lock, then samplers run lock-free — a registration racing a
    /// snapshot lands in the next one.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let entries: Vec<Arc<SourceEntry>> = self.inner.sources.lock().clone();
        let mut sources: Vec<SourceSample> = entries
            .iter()
            .map(|e| {
                let body = (e.sampler)();
                SourceSample {
                    source: e.name.clone(),
                    subsystem: e.subsystem.clone(),
                    metrics: body.metrics,
                    entities: body.entities,
                }
            })
            .collect();
        sources.sort_by(|a, b| {
            (a.subsystem.as_str(), a.source.as_str())
                .cmp(&(b.subsystem.as_str(), b.source.as_str()))
        });
        StatsSnapshot {
            seq: self.inner.snapshots.fetch_add(1, Ordering::Relaxed) + 1,
            sources,
        }
    }
}

impl fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("sources", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_sample_through_closures() {
        let stats = StatsRegistry::new();
        let count = Arc::new(AtomicU64::new(3));
        let probe = Arc::clone(&count);
        stats.register("link", "transport", move || {
            vec![
                Metric::counter("sent", "frames", probe.load(Ordering::Relaxed)),
                Metric::gauge("fill", "fraction", 0.25),
                Metric::text("peer", "inproc://x"),
            ]
            .into()
        });
        let snap = stats.snapshot();
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.value("link", "sent"), Some(3.0));
        assert_eq!(snap.value("link", "fill"), Some(0.25));
        assert_eq!(snap.value("link", "peer"), None, "text has no number");
        count.store(9, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.value("link", "sent"), Some(9.0));
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let stats = StatsRegistry::new();
        stats.register("zeta", "transport", SourceBody::default);
        stats.register("alpha", "transport", SourceBody::default);
        stats.register("mid", "pool", SourceBody::default);
        let names: Vec<(String, String)> = stats
            .snapshot()
            .sources
            .into_iter()
            .map(|s| (s.subsystem, s.source))
            .collect();
        assert_eq!(
            names,
            vec![
                ("pool".into(), "mid".into()),
                ("transport".into(), "alpha".into()),
                ("transport".into(), "zeta".into()),
            ]
        );
    }

    #[test]
    fn reregistering_a_name_replaces_the_source() {
        let stats = StatsRegistry::new();
        let stale = stats.register("s", "x", || vec![Metric::counter("v", "", 1)].into());
        let fresh = stats.register("s", "x", || vec![Metric::counter("v", "", 2)].into());
        assert_ne!(stale, fresh);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats.snapshot().value("s", "v"), Some(2.0));
    }

    #[test]
    fn entities_ride_alongside_aggregates() {
        let stats = StatsRegistry::new();
        stats.register("roster", "serve", || SourceBody {
            metrics: vec![Metric::counter("sessions", "", 2)],
            entities: vec![
                EntitySample {
                    id: "1".into(),
                    metrics: vec![Metric::gauge("queued", "frames", 4.0)],
                },
                EntitySample {
                    id: "2".into(),
                    metrics: vec![Metric::gauge("queued", "frames", 0.0)],
                },
            ],
        });
        let snap = stats.snapshot();
        let roster = snap.source("roster").unwrap();
        assert_eq!(roster.entities.len(), 2);
        assert_eq!(roster.entities[0].metrics[0].value, MetricValue::Gauge(4.0));
    }

    #[test]
    fn clones_share_and_sampling_survives_concurrent_registration() {
        let stats = StatsRegistry::new();
        let writer = stats.clone();
        let spawn = std::thread::spawn(move || {
            for i in 0..200u64 {
                writer.register(format!("s{i}"), "t", move || {
                    vec![Metric::counter("i", "", i)].into()
                });
            }
        });
        for _ in 0..50 {
            let _ = stats.snapshot();
        }
        spawn.join().unwrap();
        assert_eq!(stats.len(), 200);
        assert_eq!(stats.snapshot().sources.len(), 200);
    }
}
