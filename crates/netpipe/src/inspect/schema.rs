//! The inspector's versioned wire schema, and its JSON and table
//! renderings.
//!
//! A reply carries core's [`StatsSnapshot`] as it is, through the
//! [`crate::wire`] codec. The codec is schema-driven and not
//! self-describing, so the snapshot is led by an explicit
//! [`SCHEMA_VERSION`]; a client talking to a newer server fails loudly
//! ([`RemoteError::Version`](crate::RemoteError)) instead of
//! misdecoding.

use infopipes::{Metric, MetricValue, StatsSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The wire schema version. Bump on any change to the framed types —
/// the messages below and the [`StatsSnapshot`] tree; the
/// request/reply enums carry it so both directions are guarded.
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
    /// One full snapshot, led by the server's [`SCHEMA_VERSION`].
    Snapshot(u32, StatsSnapshot),
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

fn json_value(value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => format!("{v}"),
        // JSON has no NaN/inf; a non-finite gauge renders as null.
        MetricValue::Gauge(v) if v.is_finite() => format!("{v}"),
        MetricValue::Gauge(_) => "null".to_owned(),
        MetricValue::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn json_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Text(_) => "text",
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

/// Renders a snapshot as one JSON document (hand-built: metric names
/// become object keys, metric values become `{kind, unit, value}`
/// objects).
#[must_use]
pub fn to_json(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema_version\":{SCHEMA_VERSION},\"seq\":{},\"sources\":[",
        snap.seq
    );
    for (i, src) in snap.sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"source\":\"{}\",\"subsystem\":\"{}\",\"metrics\":",
            json_escape(&src.source),
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

/// Renders a snapshot as a plain-text table, one row per metric,
/// grouped by source (the `--watch` view).
#[must_use]
pub fn render_table(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "snapshot #{} (schema v{SCHEMA_VERSION})", snap.seq);
    for src in &snap.sources {
        let _ = writeln!(out, "\n[{}] {}", src.subsystem, src.source);
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

fn render_value(value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => format!("{v}"),
        MetricValue::Gauge(v) => format!("{v:.4}"),
        MetricValue::Text(s) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use infopipes::{EntitySample, SourceSample};

    fn sample_snapshot() -> StatsSnapshot {
        StatsSnapshot {
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
        }
    }

    #[test]
    fn snapshots_round_trip_through_the_wire_codec() {
        let reply = InspectReply::Snapshot(SCHEMA_VERSION, sample_snapshot());
        let bytes = wire::to_bytes(&reply).unwrap();
        let back: InspectReply = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, reply);

        let req = InspectRequest::Snapshot(SCHEMA_VERSION);
        let bytes = wire::to_bytes(&req).unwrap();
        let back: InspectRequest = wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, req);
    }

    /// Hostile input on both directions of the inspector channel:
    /// truncations, mutations and garbage fail typed, and so do huge
    /// length or count prefixes with nothing behind them.
    #[test]
    fn hostile_inspect_messages_fail_typed() {
        let req = wire::to_bytes(&InspectRequest::Snapshot(SCHEMA_VERSION)).unwrap();
        wire::check_hostile::<InspectRequest>(&req, "inspect_request");
        let reply = wire::to_bytes(&InspectReply::Snapshot(SCHEMA_VERSION, sample_snapshot()));
        wire::check_hostile::<InspectReply>(&reply.unwrap(), "inspect_reply");

        let max = u32::MAX.to_le_bytes();
        let head = [&[0, 0, 0, 0][..], &[1, 0, 0, 0], &[7, 0, 0, 0, 0, 0, 0, 0]].concat();
        for hostile in [
            max.to_vec(),                              // variant u32::MAX
            [&head[..], &max].concat(),                // u32::MAX sources
            [&head[..], &[1, 0, 0, 0], &max].concat(), // a u32::MAX name
        ] {
            assert!(wire::from_bytes::<InspectReply>(&hostile).is_err());
            assert!(wire::from_bytes::<InspectRequest>(&hostile).is_err());
        }
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = to_json(&sample_snapshot());
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
        snap.sources[0].metrics[1].value = MetricValue::Gauge(f64::NAN);
        assert!(to_json(&snap).contains("\"value\":null"));
    }

    #[test]
    fn lookup_and_table_rendering() {
        let snap = sample_snapshot();
        assert_eq!(snap.value("uplink", "sent"), Some(12.0));
        assert_eq!(snap.value("uplink", "peer"), None);
        assert_eq!(snap.value("ghost", "sent"), None);
        let table = render_table(&snap);
        assert!(table.contains("[transport] uplink"));
        assert!(table.contains("sent"));
        assert!(table.contains("· 1"));
    }
}
