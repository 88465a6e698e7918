//! Netpipes: remote transmission for Infopipes (§2.4 of the paper).
//!
//! "Different transport protocols can be easily integrated into the
//! Infopipe framework as netpipes. These netpipes support plain data flows
//! and may manage low-level properties such as bandwidth and latency.
//! Marshalling filters on either side translate the raw data flow to a
//! higher-level information flow and vice-versa."
//!
//! This crate provides, layer by layer:
//!
//! * a from-scratch binary **wire codec** ([`wire`]) implementing serde's
//!   `Serializer`/`Deserializer`; [`wire::to_payload`] seals a message
//!   into one shared [`PayloadBytes`] buffer — the start of the
//!   **zero-copy payload path**: every later crossing (tees, transports,
//!   framing) shares that allocation by refcount instead of copying it,
//! * **marshalling filters** ([`Marshal`], [`Unmarshal`]) between typed
//!   items and [`WireBytes`], which also rewrite the Typespec *location*
//!   property — the only components allowed to (§2.4). The rewrite is
//!   driven by the transport's [`PeerIdentity`]
//!   ([`Unmarshal::at_peer`]), so a flow's location names where it
//!   really came from,
//! * a **pluggable transport layer**: one [`Transport`] trait —
//!   connect/listen, frame-level sends with a backpressure signal, a
//!   prioritized control-event lane, link statistics — with four
//!   interchangeable backends:
//!   [`InProcTransport`] (lock-free in-process channel, allocation-free
//!   per send), [`SimTransport`] (simulated
//!   latency/bandwidth/jitter/loss, deterministic under virtual time —
//!   the Fig. 1 congested network), [`TcpTransport`] (real sockets),
//!   and [`UdpTransport`] (real sockets, lossy datagrams). All four
//!   carry [`PayloadBytes`] frames end-to-end; stream backends frame
//!   them with [`framing`]. [`NetSendEnd`] is the one
//!   generic producer-side pipeline stage serving every backend — it
//!   also broadcasts send-side congestion readings
//!   ([`feedback::readings::SEND_SATURATION`]) so feedback loops can
//!   react to transport backpressure — and
//!   [`PipelineTransportExt::add_net_sink`] records the transport at the
//!   planned section boundary,
//! * a **serving tier**: an [`AcceptLoop`] admits every connection into
//!   a [`SessionRegistry`], and a [`NetSendEnd`] over the registry tees
//!   each frame to every session by refcount, with per-session
//!   congestion readings and drop levels,
//! * **remote component factories** and a remote Typespec query,
//!   generic over the transport: a [`RemoteHost`] builds a consumer-side
//!   pipeline from a client's component list and forwards control
//!   events in both directions — the same [`RemoteClient`] code
//!   runs over TCP, the simulator, or an in-process link,
//! * a **live inspector** ([`inspect`]): every subsystem's stats —
//!   sessions, links, pools, kernel, marshalling, feedback loops —
//!   registered in one process-wide
//!   [`StatsRegistry`](infopipes::StatsRegistry) and exported over a
//!   versioned control-channel protocol on any transport
//!   ([`InspectServer`] / [`InspectClient`]).

#![warn(missing_docs)]

pub mod framing;
pub mod inspect;
mod marshal;
mod proto;
mod remote;
mod serve;
mod transport;
pub mod wire;
#[cfg(test)]
mod wire_golden;
mod worker;

pub use framing::{read_frame_in, write_frame, FrameKind};
pub use infopipes::{BufferPool, PayloadBytes, PoolStats};
pub use inspect::{InspectClient, InspectServer};
pub use marshal::{Marshal, Unmarshal, UnmarshalCounters, WireBytes};
pub use proto::RemoteError;
pub use remote::{ComponentRegistry, RemoteClient, RemoteHost, SpecSummary};
pub use serve::{
    AcceptLoop, RegistryStats, ServeConfig, SessionId, SessionRegistry, SessionSnapshot,
    SessionState,
};
pub use transport::{
    Acceptor, Frame, InProcAcceptor, InProcLink, InProcTransport, Link, LinkStats, NetSendEnd,
    PeerIdentity, PipelineTransportExt, RecvOutcome, SaturationProbe, SendSink, SendStatus,
    SimAcceptor, SimConfig, SimLink, SimTransport, TcpAcceptor, TcpLink, TcpTransport, Transport,
    TransportError, UdpAcceptor, UdpLink, UdpTransport,
};
