//! The inspector's control-channel server and client.
//!
//! An [`InspectServer`] parks the crate's shared accept loop on any
//! [`Acceptor`] and answers [`InspectRequest`]s on each
//! accepted link with a freshly sampled [`WireSnapshot`]. Each client
//! gets a handler thread the accept loop owns: reaped as soon as the
//! client goes, stopped and joined with the server. The exchange
//! uses only [`Frame::Control`] frames, so it runs unchanged over
//! inproc, sim, TCP, and UDP — exactly the property the remote factory
//! protocol ([`crate::remote`]) established for data pipelines, applied
//! to the observability plane.
//!
//! The client side, [`InspectClient`], is symmetric: connect over any
//! [`Transport`], call [`fetch`](InspectClient::fetch), get one
//! coherent [`WireSnapshot`].

use super::schema::{InspectReply, InspectRequest, WireSnapshot, SCHEMA_VERSION};
use crate::transport::{Acceptor, Frame, Link, RecvOutcome, Transport};
use crate::wire;
use crate::worker::{spawn_accept_loop, Accepted, Stop, Worker};
use infopipes::StatsRegistry;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the client waits for a snapshot reply before giving up.
const CTRL_TIMEOUT: Duration = Duration::from_secs(20);
/// Poll granularity for receive loops.
const POLL: Duration = Duration::from_millis(50);

/// Errors of the inspector protocol.
#[derive(Debug)]
pub enum InspectError {
    /// A transport error.
    Transport(crate::TransportError),
    /// A malformed protocol message.
    Wire(String),
    /// The peer violated the protocol (wrong frame, timeout, closed).
    Protocol(String),
    /// The server speaks a different schema version.
    Version {
        /// The version the server announced.
        got: u32,
    },
}

impl fmt::Display for InspectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InspectError::Transport(e) => write!(f, "transport error: {e}"),
            InspectError::Wire(s) => write!(f, "malformed message: {s}"),
            InspectError::Protocol(s) => write!(f, "protocol violation: {s}"),
            InspectError::Version { got } => write!(
                f,
                "schema version mismatch: server speaks v{got}, client speaks v{SCHEMA_VERSION}"
            ),
        }
    }
}

impl std::error::Error for InspectError {}

impl From<crate::TransportError> for InspectError {
    fn from(e: crate::TransportError) -> Self {
        InspectError::Transport(e)
    }
}

/// A running inspector endpoint: an accept loop plus one handler thread
/// per connected client, each answering snapshot requests from a shared
/// [`StatsRegistry`].
///
/// Shut down explicitly with [`shutdown`](InspectServer::shutdown) or
/// implicitly on drop.
pub struct InspectServer {
    served: Arc<AtomicU64>,
    accept: Option<Worker<Accepted>>,
}

impl InspectServer {
    /// Spawns the accept loop on an already-bound acceptor.
    ///
    /// Each accepted link gets its own handler thread; handlers exit on
    /// Fin/Closed, on shutdown, or when a reply is not accepted by the
    /// link.
    #[must_use]
    pub fn spawn<A>(acceptor: A, registry: StatsRegistry) -> InspectServer
    where
        A: Acceptor + 'static,
    {
        let served = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&served);
        let accept = spawn_accept_loop("inspect-accept", acceptor, move |link| {
            let registry = registry.clone();
            let served = Arc::clone(&counter);
            // A client whose handler cannot be spawned is dropped.
            Worker::spawn("inspect-handler", move |stop| {
                handle_link(&link, &registry, stop, &served);
            })
            .ok()
        })
        .expect("spawn inspect accept thread");
        InspectServer {
            served,
            accept: Some(accept),
        }
    }

    /// How many snapshots this server has answered so far.
    #[must_use]
    pub fn snapshots_served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Stops the accept loop and all handler threads, and waits for
    /// them to exit.
    pub fn shutdown(&mut self) {
        self.accept = None;
    }
}

fn handle_link<L: Link>(link: &L, registry: &StatsRegistry, stop: &Stop, served: &AtomicU64) {
    while !stop.requested() {
        match link.recv(POLL) {
            RecvOutcome::Frame(Frame::Control(payload)) => {
                let Ok(req) = wire::from_bytes::<InspectRequest>(&payload) else {
                    return; // malformed request: drop the client
                };
                let InspectRequest::Snapshot(_client_version) = req;
                // v1 serves every client; the reply carries the server
                // version so the client decides compatibility.
                let snap = WireSnapshot::from(&registry.snapshot());
                let reply = InspectReply::Snapshot(snap);
                let Ok(bytes) = wire::to_bytes(&reply) else {
                    return;
                };
                // Counted before the send: a client that has decoded the
                // reply must already observe the bump.
                served.fetch_add(1, Ordering::AcqRel);
                if !link.send(Frame::Control(bytes)).accepted() {
                    return;
                }
            }
            // Events and data on an inspector link are not ours; skip.
            RecvOutcome::Frame(_) | RecvOutcome::TimedOut => {}
            RecvOutcome::Fin | RecvOutcome::Closed => return,
        }
    }
}

/// A connected inspector client over any [`Link`].
pub struct InspectClient<L: Link> {
    link: L,
}

impl<L: Link> InspectClient<L> {
    /// Connects to an inspector endpoint over a transport.
    ///
    /// # Errors
    ///
    /// [`InspectError::Transport`] when the connect fails.
    pub fn connect<T: Transport<Link = L>>(
        transport: &T,
        addr: &str,
    ) -> Result<InspectClient<L>, InspectError> {
        Ok(InspectClient {
            link: transport.connect(addr)?,
        })
    }

    /// Wraps an already-established link.
    #[must_use]
    pub fn over(link: L) -> InspectClient<L> {
        InspectClient { link }
    }

    /// Requests and decodes one snapshot.
    ///
    /// # Errors
    ///
    /// [`InspectError::Transport`] if the request is not accepted,
    /// [`InspectError::Wire`] on a malformed reply,
    /// [`InspectError::Protocol`] on timeout or an unexpected frame,
    /// [`InspectError::Version`] if the server speaks a different
    /// schema version.
    pub fn fetch(&self) -> Result<WireSnapshot, InspectError> {
        let req = wire::to_bytes(&InspectRequest::Snapshot(SCHEMA_VERSION))
            .map_err(|e| InspectError::Wire(e.to_string()))?;
        if !self.link.send(Frame::Control(req)).accepted() {
            return Err(InspectError::Transport(crate::TransportError::Closed));
        }
        let deadline = std::time::Instant::now() + CTRL_TIMEOUT;
        loop {
            match self.link.recv(POLL) {
                RecvOutcome::Frame(Frame::Control(payload)) => {
                    let InspectReply::Snapshot(snap) = wire::from_bytes(&payload)
                        .map_err(|e| InspectError::Wire(e.to_string()))?;
                    if snap.version != SCHEMA_VERSION {
                        return Err(InspectError::Version { got: snap.version });
                    }
                    return Ok(snap);
                }
                // Inspector links may coexist with event chatter; skip.
                RecvOutcome::Frame(Frame::Event(_)) | RecvOutcome::TimedOut => {}
                RecvOutcome::Frame(_) => {
                    return Err(InspectError::Protocol(
                        "expected a snapshot reply, got a data frame".into(),
                    ));
                }
                RecvOutcome::Fin | RecvOutcome::Closed => {
                    return Err(InspectError::Protocol("connection closed".into()));
                }
            }
            if std::time::Instant::now() >= deadline {
                return Err(InspectError::Protocol(
                    "timed out waiting for a snapshot".into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;

    /// A long-lived server must not grow with the number of clients it
    /// has ever served: a handler is reaped once its client is gone.
    #[test]
    fn finished_handlers_are_reaped_while_the_server_runs() {
        const CLIENTS: u64 = 200;
        let transport = InProcTransport::new();
        let acceptor = transport.listen("inspect").unwrap();
        let mut server = InspectServer::spawn(acceptor, StatsRegistry::new());
        for _ in 0..CLIENTS {
            let client = InspectClient::connect(&transport, "inspect").unwrap();
            client.fetch().unwrap();
        }
        assert_eq!(server.snapshots_served(), CLIENTS);
        let done = server.accept.take().unwrap().shutdown().unwrap();
        assert_eq!(done.links, CLIENTS);
        assert!(
            done.peak_handlers <= 8,
            "{} handlers were held at once for {CLIENTS} sequential clients",
            done.peak_handlers
        );
    }
}
