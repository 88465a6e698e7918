//! Golden bytes of the control plane: what this build writes for every
//! control event, a spec reply and an inspector snapshot, pinned as hex.
//!
//! Peers built from older sources decode exactly these bytes; a change
//! that moves one of them breaks them without a version bump. The adapters at the top name the types
//! that carry each message and are the only lines a change of those
//! types may touch; the cases and their bytes stay as they are.

use crate::inspect::{InspectReply, SCHEMA_VERSION};
use crate::proto::CtrlMsg;
use crate::wire;
use crate::SpecSummary;
use infopipes::{ControlEvent, EntitySample, Metric, SourceSample, StatsSnapshot};

fn event_bytes(ev: &ControlEvent) -> Vec<u8> {
    wire::to_bytes(ev).expect("encode event")
}

fn event_from(bytes: &[u8]) -> ControlEvent {
    wire::from_bytes(bytes).expect("decode event")
}

fn spec_reply_bytes(spec: &SpecSummary) -> Vec<u8> {
    wire::to_bytes(&CtrlMsg::SpecReply(spec.clone())).expect("encode spec reply")
}

fn spec_reply_from(bytes: &[u8]) -> SpecSummary {
    match wire::from_bytes(bytes).expect("decode spec reply") {
        CtrlMsg::SpecReply(spec) => spec,
        other => panic!("not a spec reply: {other:?}"),
    }
}

fn snapshot_reply_bytes(snap: &StatsSnapshot) -> Vec<u8> {
    let reply = InspectReply::Snapshot(SCHEMA_VERSION, snap.clone());
    wire::to_bytes(&reply).expect("encode snapshot reply")
}

fn snapshot_reply_from(bytes: &[u8]) -> (u32, StatsSnapshot) {
    let InspectReply::Snapshot(version, snap) = wire::from_bytes(bytes).expect("decode snapshot");
    (version, snap)
}

// ---------------------------------------------------------------------
// The cases: unchanged while the wire format is.
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn every_control_event_keeps_its_bytes() {
    let cases: [(ControlEvent, &str); 8] = [
        (ControlEvent::Start, "00000000"),
        (ControlEvent::Stop, "01000000"),
        (ControlEvent::Eos, "02000000"),
        (ControlEvent::SetRate(29.97), "03000000b81e85eb51f83d40"),
        (ControlEvent::SetDropLevel(2), "0400000002"),
        (
            ControlEvent::WindowResize {
                width: 640,
                height: 480,
            },
            "0500000080020000e0010000",
        ),
        (
            ControlEvent::FrameRelease(0x0102_0304_0506_0708),
            "060000000807060504030201",
        ),
        (
            ControlEvent::custom("größe-✓", -0.5),
            "070000000b0000006772c3b6c39f652de29c93000000000000e0bf",
        ),
    ];
    for (ev, golden) in cases {
        assert_eq!(hex(&event_bytes(&ev)), golden, "{ev:?}");
        assert_eq!(event_from(&unhex(golden)), ev);
    }
}

#[test]
fn spec_reply_keeps_its_bytes() {
    let spec = SpecSummary {
        item: "RawFrame".into(),
        location: Some("consumer".into()),
        qos: vec![("frame-rate-hz".into(), 24.0, 30.0)],
    };
    let golden = concat!(
        "03000000",                           // SpecReply
        "080000005261774672616d65",           // "RawFrame"
        "0108000000636f6e73756d6572",         // Some("consumer")
        "01000000",                           // one QoS entry
        "0d0000006672616d652d726174652d687a", // "frame-rate-hz"
        "00000000000038400000000000003e40",   // 24.0, 30.0
    );
    assert_eq!(hex(&spec_reply_bytes(&spec)), golden);
    assert_eq!(spec_reply_from(&unhex(golden)), spec);
}

#[test]
fn snapshot_reply_keeps_its_bytes() {
    let snap = StatsSnapshot {
        seq: 7,
        sources: vec![SourceSample {
            source: "uplink".into(),
            subsystem: "transport".into(),
            metrics: vec![
                Metric::counter("sent", "frames", 12),
                Metric::gauge("saturation", "fraction", 0.5),
                Metric::text("peer", "sim://a"),
            ],
            entities: vec![EntitySample {
                id: "1".into(),
                metrics: vec![Metric::counter("queued", "frames", 3)],
            }],
        }],
    };
    let golden = concat!(
        "00000000",                                 // Snapshot
        "01000000",                                 // schema version 1
        "0700000000000000",                         // seq 7
        "01000000",                                 // one source
        "0600000075706c696e6b",                     // "uplink"
        "090000007472616e73706f7274",               // "transport"
        "03000000",                                 // three metrics
        "0400000073656e74060000006672616d6573",     // "sent", "frames"
        "000000000c00000000000000",                 // Counter(12)
        "0a00000073617475726174696f6e",             // "saturation"
        "080000006672616374696f6e",                 // "fraction"
        "01000000000000000000e03f",                 // Gauge(0.5)
        "040000007065657200000000",                 // "peer", ""
        "020000000700000073696d3a2f2f61",           // Text("sim://a")
        "01000000",                                 // one entity
        "0100000031",                               // "1"
        "01000000",                                 // one metric
        "06000000717565756564060000006672616d6573", // "queued", "frames"
        "000000000300000000000000",                 // Counter(3)
    );
    assert_eq!(hex(&snapshot_reply_bytes(&snap)), golden);
    assert_eq!(snapshot_reply_from(&unhex(golden)), (SCHEMA_VERSION, snap));
}
