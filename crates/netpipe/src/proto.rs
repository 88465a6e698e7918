//! The middleware protocol's control messages and the one request/reply
//! exchange both of its clients use.
//!
//! Control events need nothing here: [`Frame::Event`] carries core's
//! [`ControlEvent`](infopipes::ControlEvent) itself. The factory and
//! Typespec-query protocol (§2.4) is [`CtrlMsg`]; the inspector's
//! messages live in `inspect`. Both travel as [`Frame::Control`]
//! payloads through the [`crate::wire`] codec, and both clients —
//! [`RemoteClient`](crate::RemoteClient) and
//! [`InspectClient`](crate::InspectClient) — send a request and wait for
//! its reply through [`request`], under one timeout and one error type.

use crate::remote::SpecSummary;
use crate::transport::{Frame, Link, RecvOutcome};
use crate::wire;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// How long a protocol peer waits for a control reply before giving up.
const CTRL_TIMEOUT: Duration = Duration::from_secs(20);
/// Poll granularity of the control-plane receive loops.
pub(crate) const POLL: Duration = Duration::from_millis(50);

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
    SpecReply(SpecSummary),
}

/// Errors of the control-plane protocols: the remote factory and the
/// inspector.
#[derive(Debug)]
pub enum RemoteError {
    /// A transport error.
    Transport(crate::TransportError),
    /// A malformed protocol message.
    Wire(String),
    /// The peer violated the protocol (wrong message at the wrong time,
    /// timeout, closed).
    Protocol(String),
    /// The host refused the request (unknown component, bad composition).
    Refused(String),
    /// The inspector server speaks a different schema version.
    Version {
        /// The version the server announced.
        got: u32,
    },
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Transport(e) => write!(f, "transport error: {e}"),
            RemoteError::Wire(s) => write!(f, "malformed message: {s}"),
            RemoteError::Protocol(s) => write!(f, "protocol violation: {s}"),
            RemoteError::Refused(s) => write!(f, "host refused: {s}"),
            RemoteError::Version { got } => write!(
                f,
                "schema version mismatch: server speaks v{got}, client speaks v{}",
                crate::inspect::SCHEMA_VERSION
            ),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<crate::TransportError> for RemoteError {
    fn from(e: crate::TransportError) -> Self {
        RemoteError::Transport(e)
    }
}

/// Sends `msg` as one `Control` frame.
pub(crate) fn send_ctrl<L: Link>(link: &L, msg: &impl Serialize) -> Result<(), RemoteError> {
    let bytes = wire::to_bytes(msg).map_err(|e| RemoteError::Wire(e.to_string()))?;
    if link.send(Frame::Control(bytes)).accepted() {
        Ok(())
    } else {
        Err(RemoteError::Transport(crate::TransportError::Closed))
    }
}

/// Waits for the next control frame and decodes it; events arriving
/// meanwhile are skipped (they are not ours to handle yet), data frames
/// are a protocol violation.
pub(crate) fn recv_ctrl<L: Link, T: DeserializeOwned>(
    link: &L,
    what: &str,
) -> Result<T, RemoteError> {
    let deadline = Instant::now() + CTRL_TIMEOUT;
    loop {
        match link.recv(POLL) {
            RecvOutcome::Frame(Frame::Control(payload)) => {
                return wire::from_bytes(&payload).map_err(|e| RemoteError::Wire(e.to_string()));
            }
            RecvOutcome::Frame(Frame::Event(_)) | RecvOutcome::TimedOut => {}
            RecvOutcome::Frame(other) => {
                let kind = if matches!(other, Frame::Data(_)) {
                    "data"
                } else {
                    "fin"
                };
                return Err(RemoteError::Protocol(format!(
                    "expected {what}, got a {kind} frame"
                )));
            }
            RecvOutcome::Fin | RecvOutcome::Closed => {
                return Err(RemoteError::Protocol("connection closed".into()));
            }
        }
        // Checked on every iteration: a peer streaming events faster than
        // the poll period must not be able to starve the deadline.
        if Instant::now() >= deadline {
            return Err(RemoteError::Protocol(format!(
                "timed out waiting for {what}"
            )));
        }
    }
}

/// One exchange: sends `request`, then waits for the reply `what`.
pub(crate) fn request<L: Link, T: DeserializeOwned>(
    link: &L,
    request: &impl Serialize,
    what: &str,
) -> Result<T, RemoteError> {
    send_ctrl(link, request)?;
    recv_ctrl(link, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use crate::{Acceptor, Transport};
    use infopipes::ControlEvent;

    /// Every control event round-trips as core's type, and each one's
    /// encoding holds up to the hostile-input cases.
    #[test]
    fn events_round_trip_through_wire_form() {
        let events = [
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
            let bytes = wire::to_bytes(&ev).unwrap();
            assert_eq!(wire::from_bytes::<ControlEvent>(&bytes).unwrap(), ev);
            wire::check_hostile::<ControlEvent>(&bytes, ev.kind_name());
        }
        let max = u32::MAX.to_le_bytes();
        for hostile in [max.to_vec(), [&[7, 0, 0, 0][..], &max].concat()] {
            assert!(wire::from_bytes::<ControlEvent>(&hostile).is_err());
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
            CtrlMsg::SpecReply(SpecSummary {
                item: "RawFrame".into(),
                location: Some("consumer".into()),
                qos: vec![("frame-rate-hz".into(), 30.0, 30.0)],
            }),
        ];
        for m in msgs {
            let bytes = wire::to_bytes(&m).unwrap();
            let back: CtrlMsg = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }

    /// Hostile input: arbitrary bytes, every truncation and single-byte
    /// mutations of valid messages, and huge length or count prefixes
    /// with nothing behind them, all end in a typed error or a value —
    /// never a panic.
    #[test]
    fn hostile_ctrl_msgs_fail_typed() {
        let valid = wire::to_bytes(&CtrlMsg::SpecReply(SpecSummary {
            item: "RawFrame".into(),
            location: Some("consumer".into()),
            qos: vec![("frame-rate-hz".into(), 24.0, 30.0)],
        }))
        .unwrap();
        wire::check_hostile::<CtrlMsg>(&valid, "ctrl_msgs");
        let max = u32::MAX.to_le_bytes();
        for prefix in [
            [&[0, 0, 0, 0][..], &max].concat(), // CreatePipeline, u32::MAX names
            [&[1, 0, 0, 0, 1][..], &max].concat(), // Created, a u32::MAX string
            [&[3, 0, 0, 0][..], &max].concat(), // SpecReply, a u32::MAX item
            max.to_vec(),                       // variant u32::MAX
        ] {
            assert!(wire::from_bytes::<CtrlMsg>(&prefix).is_err());
        }
    }

    /// A data frame where a reply belongs, and a link that closes
    /// before one comes, each end the exchange with a protocol error.
    #[test]
    fn request_fails_on_a_data_frame_and_on_close() {
        let transport = InProcTransport::new();
        let acceptor = transport.listen("proto").unwrap();
        let client = transport.connect("proto").unwrap();
        let server = acceptor.accept().unwrap();

        assert!(server
            .send(Frame::Data(infopipes::PayloadBytes::from(&[1u8][..])))
            .accepted());
        let err = request::<_, CtrlMsg>(&client, &CtrlMsg::QuerySpec, "SpecReply").unwrap_err();
        assert!(
            matches!(&err, RemoteError::Protocol(s) if s == "expected SpecReply, got a data frame"),
            "{err:?}"
        );
        drop(server);
        let err = recv_ctrl::<_, CtrlMsg>(&client, "SpecReply").unwrap_err();
        assert!(
            matches!(&err, RemoteError::Protocol(s) if s == "connection closed"),
            "{err:?}"
        );
    }
}
