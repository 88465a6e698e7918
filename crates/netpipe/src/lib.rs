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
//! * a **pluggable transport layer** ([`transport`]): one [`Transport`]
//!   trait — connect/listen, frame-level sends with a backpressure
//!   signal, a prioritized control-event lane, link statistics — with
//!   four interchangeable backends:
//!   [`InProcTransport`] (lock-free in-process channel, allocation-free
//!   per send), [`SimTransport`] (simulated
//!   latency/bandwidth/jitter/loss, deterministic under virtual time —
//!   the Fig. 1 congested network), [`TcpTransport`] (real sockets),
//!   and [`UdpTransport`] (real sockets, lossy datagrams). All four
//!   carry [`PayloadBytes`] frames end-to-end. [`NetSendEnd`] is the one
//!   generic producer-side pipeline stage serving every backend — it
//!   also broadcasts send-side congestion readings
//!   ([`feedback::readings::SEND_SATURATION`]) so feedback loops can
//!   react to transport backpressure — and
//!   [`PipelineTransportExt::add_net_sink`] records the transport at the
//!   planned section boundary,
//! * **remote component factories** and a remote Typespec query
//!   ([`remote`]), generic over the transport: a [`RemoteHost`] builds a
//!   consumer-side pipeline from a client's component list and forwards
//!   control events in both directions — the same [`RemoteClient`] code
//!   runs over TCP, the simulator, or an in-process link,
//! * **record & replay** ([`record`]): a chunked, CRC-guarded trace
//!   container capturing frames (with virtual timestamps, channel
//!   typespecs, and the sim scenario) zero-copy off any link or
//!   pipeline edge ([`RecordingLink`], [`Recorder`]), crash-safe
//!   recovery on open ([`TraceReader`]), and a [`Replayer`] that
//!   re-runs a trace bit-identically under virtual time,
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
pub mod record;
pub mod remote;
pub mod serve;
pub mod transport;
pub mod wire;
mod worker;

pub use framing::{read_frame, read_frame_in, write_frame, FrameKind};
pub use infopipes::{BufferPool, PayloadBytes, PoolStats};
pub use inspect::{InspectClient, InspectError, InspectServer, WireSnapshot};
pub use marshal::{Marshal, Unmarshal, UnmarshalCounters, UnmarshalStats, WireBytes};
pub use proto::WireEvent;
pub use record::{
    ChannelDecl, DigestProbe, DigestSink, Recorder, RecordingLink, ReplayHandle, ReplayMode,
    Replayer, TraceReader, TraceWriter, TRACE_SCHEMA_VERSION,
};
pub use remote::{ComponentRegistry, RemoteClient, RemoteError, RemoteHost, SpecSummary};
pub use serve::{
    AcceptLoop, BroadcastSendEnd, Housekeeper, RegistryStats, ServeConfig, SessionId,
    SessionRegistry, SessionSnapshot, SessionState,
};
pub use transport::{
    Acceptor, BatchPolicy, Frame, InProcAcceptor, InProcLink, InProcTransport, Link, LinkStats,
    NetSendEnd, PeerIdentity, PipelineTransportExt, RecvOutcome, SaturationProbe, SendSink,
    SendStatus, SimAcceptor, SimConfig, SimLink, SimTransport, TcpAcceptor, TcpLink, TcpTransport,
    Transport, TransportError, UdpAcceptor, UdpLink, UdpTransport,
};
