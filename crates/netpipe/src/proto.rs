//! The middleware protocol: control events and factory messages in
//! marshallable form.

use infopipes::ControlEvent;
use serde::{Deserialize, Serialize};

/// A control event in wire form ([`ControlEvent`] itself carries an `Arc`
/// and is not serializable directly).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireEvent {
    /// See [`ControlEvent::Start`].
    Start,
    /// See [`ControlEvent::Stop`].
    Stop,
    /// See [`ControlEvent::Eos`].
    Eos,
    /// See [`ControlEvent::SetRate`].
    SetRate(f64),
    /// See [`ControlEvent::SetDropLevel`].
    SetDropLevel(u8),
    /// See [`ControlEvent::WindowResize`].
    WindowResize {
        /// Width in pixels.
        width: u32,
        /// Height in pixels.
        height: u32,
    },
    /// See [`ControlEvent::FrameRelease`].
    FrameRelease(u64),
    /// See [`ControlEvent::Custom`].
    Custom {
        /// Event name.
        name: String,
        /// Scalar payload.
        value: f64,
    },
}

impl From<&ControlEvent> for WireEvent {
    fn from(ev: &ControlEvent) -> WireEvent {
        match ev {
            ControlEvent::Start => WireEvent::Start,
            ControlEvent::Stop => WireEvent::Stop,
            ControlEvent::Eos => WireEvent::Eos,
            ControlEvent::SetRate(r) => WireEvent::SetRate(*r),
            ControlEvent::SetDropLevel(l) => WireEvent::SetDropLevel(*l),
            ControlEvent::WindowResize { width, height } => WireEvent::WindowResize {
                width: *width,
                height: *height,
            },
            ControlEvent::FrameRelease(seq) => WireEvent::FrameRelease(*seq),
            ControlEvent::Custom { name, value } => WireEvent::Custom {
                name: name.to_string(),
                value: *value,
            },
        }
    }
}

impl From<WireEvent> for ControlEvent {
    fn from(ev: WireEvent) -> ControlEvent {
        match ev {
            WireEvent::Start => ControlEvent::Start,
            WireEvent::Stop => ControlEvent::Stop,
            WireEvent::Eos => ControlEvent::Eos,
            WireEvent::SetRate(r) => ControlEvent::SetRate(r),
            WireEvent::SetDropLevel(l) => ControlEvent::SetDropLevel(l),
            WireEvent::WindowResize { width, height } => {
                ControlEvent::WindowResize { width, height }
            }
            WireEvent::FrameRelease(seq) => ControlEvent::FrameRelease(seq),
            WireEvent::Custom { name, value } => ControlEvent::custom(name, value),
        }
    }
}

/// Factory / query protocol messages (carried in `Control` frames).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum CtrlMsg {
    /// Client → host: instantiate the named components, in order, behind
    /// an inbox and a free-running pump.
    CreatePipeline {
        /// Registered component names, upstream to downstream.
        components: Vec<String>,
    },
    /// Host → client: creation result.
    Created {
        /// Empty on success, otherwise the failure description.
        error: Option<String>,
    },
    /// Client → host: ask for the Typespec at the end of the remote
    /// chain (§2.4's remote Typespec query).
    QuerySpec,
    /// Host → client: the spec summary.
    SpecReply {
        /// The item type's name.
        item: String,
        /// The remote location property.
        location: Option<String>,
        /// QoS entries: (dimension name, min, max).
        qos: Vec<(String, f64, f64)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn events_round_trip_through_wire_form() {
        let events = vec![
            ControlEvent::Start,
            ControlEvent::Stop,
            ControlEvent::Eos,
            ControlEvent::SetRate(29.97),
            ControlEvent::SetDropLevel(2),
            ControlEvent::WindowResize {
                width: 640,
                height: 480,
            },
            ControlEvent::FrameRelease(99),
            ControlEvent::custom("fill-level", 0.5),
        ];
        for ev in events {
            let wire_form = WireEvent::from(&ev);
            let bytes = wire::to_bytes(&wire_form).unwrap();
            let back: WireEvent = wire::from_bytes(&bytes).unwrap();
            let restored: ControlEvent = back.into();
            assert_eq!(restored, ev);
        }
    }

    #[test]
    fn ctrl_msgs_round_trip() {
        let msgs = vec![
            CtrlMsg::CreatePipeline {
                components: vec!["unmarshal".into(), "decoder".into()],
            },
            CtrlMsg::Created { error: None },
            CtrlMsg::Created {
                error: Some("no such component".into()),
            },
            CtrlMsg::QuerySpec,
            CtrlMsg::SpecReply {
                item: "RawFrame".into(),
                location: Some("consumer".into()),
                qos: vec![("frame-rate-hz".into(), 30.0, 30.0)],
            },
        ];
        for m in msgs {
            let bytes = wire::to_bytes(&m).unwrap();
            let back: CtrlMsg = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }
}
