//! The inspector's versioned wire schema.
//!
//! A [`WireSnapshot`] is the serde-framed form of a
//! [`StatsSnapshot`]: the same
//! sources/metrics/entities tree, with every type a plain owned value so
//! it round-trips through the [`crate::wire`] codec. The codec is
//! schema-driven and not self-describing, so the snapshot leads with an
//! explicit [`SCHEMA_VERSION`]; a client talking to a newer server fails
//! loudly ([`InspectError::Version`](super::InspectError)) instead of
//! misdecoding.

use infopipes::{MetricValue, StatsSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The wire schema version. Bump on any change to the framed types
/// below; the request/reply enums carry it so both directions are
/// guarded.
pub const SCHEMA_VERSION: u32 = 1;

/// Client → server requests on the inspector channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum InspectRequest {
    /// Ask for one full snapshot; `0` carries the client's schema
    /// version.
    Snapshot(u32),
}

/// Server → client replies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum InspectReply {
    /// One full snapshot.
    Snapshot(WireSnapshot),
}

/// A metric value in wire form (mirrors
/// [`MetricValue`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireValue {
    /// A monotone count.
    Counter(u64),
    /// An instantaneous level.
    Gauge(f64),
    /// A non-numeric annotation.
    Text(String),
}

impl WireValue {
    /// The numeric value, if this metric has one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            WireValue::Counter(v) => Some(*v as f64),
            WireValue::Gauge(v) => Some(*v),
            WireValue::Text(_) => None,
        }
    }
}

/// One metric in wire form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireMetric {
    /// Metric name, unique within its source.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// The sampled value.
    pub value: WireValue,
}

/// One roster entity in wire form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireEntity {
    /// Entity id, unique within the source.
    pub id: String,
    /// The entity's metrics.
    pub metrics: Vec<WireMetric>,
}

/// One source in wire form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireSource {
    /// The registered source name.
    pub name: String,
    /// The producing subsystem.
    pub subsystem: String,
    /// Aggregate metrics.
    pub metrics: Vec<WireMetric>,
    /// Per-entity detail.
    pub entities: Vec<WireEntity>,
}

impl WireSource {
    /// Looks up an aggregate metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&WireMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One full inspector snapshot in wire form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireSnapshot {
    /// The producing server's [`SCHEMA_VERSION`].
    pub version: u32,
    /// The producing registry's snapshot sequence number.
    pub seq: u64,
    /// All sources, sorted by `(subsystem, name)`.
    pub sources: Vec<WireSource>,
}

fn to_wire_metrics(metrics: &[infopipes::Metric]) -> Vec<WireMetric> {
    metrics
        .iter()
        .map(|m| WireMetric {
            name: m.name.clone(),
            unit: m.unit.to_owned(),
            value: match &m.value {
                MetricValue::Counter(v) => WireValue::Counter(*v),
                MetricValue::Gauge(v) => WireValue::Gauge(*v),
                MetricValue::Text(s) => WireValue::Text(s.clone()),
            },
        })
        .collect()
}

impl From<&StatsSnapshot> for WireSnapshot {
    fn from(snap: &StatsSnapshot) -> WireSnapshot {
        WireSnapshot {
            version: SCHEMA_VERSION,
            seq: snap.seq,
            sources: snap
                .sources
                .iter()
                .map(|s| WireSource {
                    name: s.source.clone(),
                    subsystem: s.subsystem.clone(),
                    metrics: to_wire_metrics(&s.metrics),
                    entities: s
                        .entities
                        .iter()
                        .map(|e| WireEntity {
                            id: e.id.clone(),
                            metrics: to_wire_metrics(&e.metrics),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_value(value: &WireValue) -> String {
    match value {
        WireValue::Counter(v) => format!("{v}"),
        // JSON has no NaN/inf; a non-finite gauge renders as null.
        WireValue::Gauge(v) if v.is_finite() => format!("{v}"),
        WireValue::Gauge(_) => "null".to_owned(),
        WireValue::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn json_metrics(out: &mut String, metrics: &[WireMetric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match m.value {
            WireValue::Counter(_) => "counter",
            WireValue::Gauge(_) => "gauge",
            WireValue::Text(_) => "text",
        };
        let _ = write!(
            out,
            "\"{}\":{{\"kind\":\"{kind}\",\"unit\":\"{}\",\"value\":{}}}",
            json_escape(&m.name),
            json_escape(&m.unit),
            json_value(&m.value)
        );
    }
    out.push('}');
}

impl WireSnapshot {
    /// Renders the snapshot as one JSON document (hand-built: metric
    /// names become object keys, metric values become
    /// `{kind, unit, value}` objects).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"seq\":{},\"sources\":[",
            self.version, self.seq
        );
        for (i, src) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"source\":\"{}\",\"subsystem\":\"{}\",\"metrics\":",
                json_escape(&src.name),
                json_escape(&src.subsystem)
            );
            json_metrics(&mut out, &src.metrics);
            out.push_str(",\"entities\":[");
            for (j, e) in src.entities.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"id\":\"{}\",\"metrics\":", json_escape(&e.id));
                json_metrics(&mut out, &e.metrics);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot as a plain-text table, one row per metric,
    /// grouped by source (the `--watch` view).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "snapshot #{} (schema v{})", self.seq, self.version);
        for src in &self.sources {
            let _ = writeln!(out, "\n[{}] {}", src.subsystem, src.name);
            for m in &src.metrics {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>16} {}",
                    m.name,
                    render_value(&m.value),
                    m.unit
                );
            }
            for e in &src.entities {
                let _ = writeln!(out, "  · {}", e.id);
                for m in &e.metrics {
                    let _ = writeln!(
                        out,
                        "    {:<22} {:>16} {}",
                        m.name,
                        render_value(&m.value),
                        m.unit
                    );
                }
            }
        }
        out
    }

    /// Looks up a source by name.
    #[must_use]
    pub fn source(&self, name: &str) -> Option<&WireSource> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// The numeric value of `metric` in `source`, if both exist.
    #[must_use]
    pub fn value(&self, source: &str, metric: &str) -> Option<f64> {
        self.source(source)?.metric(metric)?.value.as_f64()
    }

    /// The subsystems present in this snapshot, deduplicated, in
    /// snapshot order.
    #[must_use]
    pub fn subsystems(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.sources {
            if !out.contains(&s.subsystem.as_str()) {
                out.push(&s.subsystem);
            }
        }
        out
    }
}

fn render_value(value: &WireValue) -> String {
    match value {
        WireValue::Counter(v) => format!("{v}"),
        WireValue::Gauge(v) => format!("{v:.4}"),
        WireValue::Text(s) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use infopipes::{EntitySample, Metric, SourceSample};

    fn sample_snapshot() -> WireSnapshot {
        WireSnapshot::from(&StatsSnapshot {
            seq: 7,
            sources: vec![SourceSample {
                source: "uplink".into(),
                subsystem: "transport".into(),
                metrics: vec![
                    Metric::counter("sent", "frames", 12),
                    Metric::gauge("saturation", "fraction", 0.5),
                    Metric::text("peer", "sim://a\"b"),
                ],
                entities: vec![EntitySample {
                    id: "1".into(),
                    metrics: vec![Metric::counter("queued", "frames", 3)],
                }],
            }],
        })
    }

    #[test]
    fn snapshots_round_trip_through_the_wire_codec() {
        let snap = sample_snapshot();
        let reply = InspectReply::Snapshot(snap.clone());
        let bytes = wire::to_bytes(&reply).unwrap();
        let back: InspectReply = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, InspectReply::Snapshot(snap));

        let req = InspectRequest::Snapshot(SCHEMA_VERSION);
        let bytes = wire::to_bytes(&req).unwrap();
        let back: InspectRequest = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with("{\"schema_version\":1,\"seq\":7,"));
        assert!(json.contains("\"sent\":{\"kind\":\"counter\",\"unit\":\"frames\",\"value\":12}"));
        assert!(json
            .contains("\"saturation\":{\"kind\":\"gauge\",\"unit\":\"fraction\",\"value\":0.5}"));
        // The quote inside the peer address is escaped.
        assert!(json.contains("sim://a\\\"b"));
        assert!(json.contains("\"entities\":[{\"id\":\"1\","));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let mut snap = sample_snapshot();
        snap.sources[0].metrics[1].value = WireValue::Gauge(f64::NAN);
        assert!(snap.to_json().contains("\"value\":null"));
    }

    #[test]
    fn lookup_and_table_rendering() {
        let snap = sample_snapshot();
        assert_eq!(snap.value("uplink", "sent"), Some(12.0));
        assert_eq!(snap.value("uplink", "peer"), None);
        assert_eq!(snap.value("ghost", "sent"), None);
        assert_eq!(snap.subsystems(), vec!["transport"]);
        let table = snap.render_table();
        assert!(table.contains("[transport] uplink"));
        assert!(table.contains("sent"));
        assert!(table.contains("· 1"));
    }
}
