//! The inspector's control-channel server and client.
//!
//! An [`InspectServer`] parks the crate's shared accept loop on any
//! [`Acceptor`] and answers [`InspectRequest`]s on each
//! accepted link with a freshly sampled [`StatsSnapshot`]. Each client
//! gets a handler thread the accept loop owns: reaped as soon as the
//! client goes, stopped and joined with the server. The exchange
//! uses only [`Frame::Control`] frames, so it runs unchanged over
//! inproc, sim, TCP, and UDP — exactly the property the remote factory
//! protocol ([`crate::RemoteHost`]) established for data pipelines,
//! applied to the observability plane.
//!
//! The client side, [`InspectClient`], is symmetric: connect over any
//! [`Transport`], call [`fetch`](InspectClient::fetch), get one
//! coherent [`StatsSnapshot`]. It runs the same request/reply exchange
//! as [`RemoteClient`](crate::RemoteClient), under the same timeout and
//! [`RemoteError`].

use super::schema::{InspectReply, InspectRequest, SCHEMA_VERSION};
use crate::proto::{request, send_ctrl, RemoteError, POLL};
use crate::transport::{Acceptor, Frame, Link, RecvOutcome, Transport};
use crate::wire;
use crate::worker::{spawn_accept_loop, Accepted, Stop, Worker};
use infopipes::{StatsRegistry, StatsSnapshot};

/// A running inspector endpoint: an accept loop plus one handler thread
/// per connected client, each answering snapshot requests from a shared
/// [`StatsRegistry`].
///
/// Shut down explicitly with [`shutdown`](InspectServer::shutdown) or
/// implicitly on drop.
pub struct InspectServer {
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
        let accept = spawn_accept_loop("inspect-accept", acceptor, move |link| {
            let registry = registry.clone();
            // A client whose handler cannot be spawned is dropped.
            Worker::spawn("inspect-handler", move |stop| {
                handle_link(&link, &registry, stop);
                // Done before the link goes: a client that sees its end
                // closed finds this handler reaped at the next accept.
                stop.finish();
                drop(link);
            })
            .ok()
        })
        .expect("spawn inspect accept thread");
        InspectServer {
            accept: Some(accept),
        }
    }

    /// Stops the accept loop and all handler threads, and waits for
    /// them to exit.
    pub fn shutdown(&mut self) {
        self.accept = None;
    }
}

fn handle_link<L: Link>(link: &L, registry: &StatsRegistry, stop: &Stop) {
    while !stop.requested() {
        match link.recv(POLL) {
            RecvOutcome::Frame(Frame::Control(payload)) => {
                let Ok(req) = wire::from_bytes::<InspectRequest>(&payload) else {
                    return; // malformed request: drop the client
                };
                let InspectRequest::Snapshot(_client_version) = req;
                // v1 serves every client; the reply carries the server
                // version so the client decides compatibility.
                let reply = InspectReply::Snapshot(SCHEMA_VERSION, registry.snapshot());
                if send_ctrl(link, &reply).is_err() {
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
    /// [`RemoteError::Transport`] when the connect fails.
    pub fn connect<T: Transport<Link = L>>(
        transport: &T,
        addr: &str,
    ) -> Result<InspectClient<L>, RemoteError> {
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
    /// [`RemoteError::Transport`] if the request is not accepted,
    /// [`RemoteError::Wire`] on a malformed reply,
    /// [`RemoteError::Protocol`] on timeout or an unexpected frame,
    /// [`RemoteError::Version`] if the server speaks a different
    /// schema version.
    pub fn fetch(&self) -> Result<StatsSnapshot, RemoteError> {
        let ask = InspectRequest::Snapshot(SCHEMA_VERSION);
        match request(&self.link, &ask, "a snapshot reply")? {
            InspectReply::Snapshot(SCHEMA_VERSION, snap) => Ok(snap),
            InspectReply::Snapshot(got, _) => Err(RemoteError::Version { got }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use std::time::Duration;

    /// A long-lived server must not grow with the number of clients it
    /// has ever served: a handler is reaped once its client is gone.
    /// Each client closes and waits until the server has let go of its
    /// end, by when that handler is marked done whether or not its thread
    /// has run since; so the next accept reaps it, and one handler is
    /// held at a time however the threads are scheduled.
    #[test]
    fn finished_handlers_are_reaped_while_the_server_runs() {
        const CLIENTS: u64 = 200;
        let transport = InProcTransport::new();
        let acceptor = transport.listen("inspect").unwrap();
        let mut server = InspectServer::spawn(acceptor, StatsRegistry::new());
        for _ in 0..CLIENTS {
            let client = InspectClient::connect(&transport, "inspect").unwrap();
            client.fetch().unwrap();
            client.link.send(Frame::Fin);
            let end = client.link.recv(Duration::from_secs(20));
            assert!(
                matches!(end, RecvOutcome::Fin | RecvOutcome::Closed),
                "the server kept its end of a closed link"
            );
        }
        let done = server.accept.take().unwrap().shutdown().unwrap();
        assert_eq!(done.links, CLIENTS);
        assert!(
            done.peak_handlers <= 1,
            "{} handlers were held at once for {CLIENTS} sequential clients",
            done.peak_handlers
        );
    }

    /// A reply from a server of another schema version is refused with
    /// the version it announced, not misdecoded.
    #[test]
    fn a_reply_of_another_schema_version_is_refused() {
        let transport = InProcTransport::new();
        let acceptor = transport.listen("inspect-v2").unwrap();
        let client = InspectClient::connect(&transport, "inspect-v2").unwrap();
        let server = acceptor.accept().unwrap();
        let reply = InspectReply::Snapshot(SCHEMA_VERSION + 1, StatsSnapshot::default());
        send_ctrl(&server, &reply).unwrap();
        let err = client.fetch().unwrap_err();
        assert!(
            matches!(err, RemoteError::Version { got } if got == SCHEMA_VERSION + 1),
            "{err:?}"
        );
    }
}
