//! Remote component factories and Typespec queries (§2.4),
//! transport-agnostic.
//!
//! "In addition to netpipes, the Infopipe platform provides protocols and
//! factories for the creation of remote Infopipe components. Remote
//! Typespec queries also require a middleware protocol as well as a
//! mechanism for property marshalling."
//!
//! A [`RemoteHost`] owns a [`ComponentRegistry`] of named component
//! factories. A [`RemoteClient`] connects over **any**
//! [`Transport`] — TCP, the network simulator, or an
//! in-process link — names the chain of components it wants instantiated
//! behind the netpipe (`CreatePipeline`), may query the resulting flow's
//! Typespec (`QuerySpec`), and then streams data frames; control events
//! are forwarded in both directions on the transport's control lane.
//!
//! The protocol sees only [`Frame`]s, so a `RemoteClient<TcpLink>` and a
//! `RemoteClient<SimLink>` run exactly the same code — swapping the
//! transport swaps the wire, nothing else.

use crate::proto::{CtrlMsg, WireEvent};
use crate::transport::{Frame, Link, PeerIdentity, RecvOutcome, Transport};
use crate::wire;
use crate::worker::Worker;
use infopipes::{
    BufferSpec, ControlEvent, FreePump, InboxSender, Item, Pipeline, RunningPipeline, Style,
};
use mbthread::Kernel;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// How long protocol peers wait for a control reply before giving up.
const CTRL_TIMEOUT: Duration = Duration::from_secs(20);
/// The host's per-iteration poll granularity while streaming.
const POLL: Duration = Duration::from_millis(50);

/// Errors of the remote factory protocol.
#[derive(Debug)]
pub enum RemoteError {
    /// A transport error.
    Transport(crate::TransportError),
    /// A malformed protocol message.
    Wire(String),
    /// The peer violated the protocol (wrong message at the wrong time).
    Protocol(String),
    /// The host refused the request (unknown component, bad composition).
    Refused(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Transport(e) => write!(f, "transport error: {e}"),
            RemoteError::Wire(s) => write!(f, "malformed message: {s}"),
            RemoteError::Protocol(s) => write!(f, "protocol violation: {s}"),
            RemoteError::Refused(s) => write!(f, "host refused: {s}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<crate::TransportError> for RemoteError {
    fn from(e: crate::TransportError) -> Self {
        RemoteError::Transport(e)
    }
}

/// Named factories for components a host can instantiate on behalf of
/// remote clients. Factories receive the requesting client's
/// [`PeerIdentity`], so location-stamping components
/// ([`Unmarshal::at_peer`](crate::Unmarshal::at_peer)) can record the
/// link the flow really arrives over.
#[derive(Default)]
pub struct ComponentRegistry {
    #[allow(clippy::type_complexity)]
    factories: HashMap<String, Box<dyn Fn(&PeerIdentity) -> Style + Send + Sync>>,
}

impl ComponentRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> ComponentRegistry {
        ComponentRegistry::default()
    }

    /// Registers a peer-independent factory under a name (replacing any
    /// previous one).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Style + Send + Sync + 'static,
    ) {
        self.factories
            .insert(name.into(), Box::new(move |_| factory()));
    }

    /// Registers a factory that receives the requesting client's peer
    /// identity.
    pub fn register_with_peer(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&PeerIdentity) -> Style + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Instantiates a registered component for the given client.
    #[must_use]
    pub fn make(&self, name: &str, peer: &PeerIdentity) -> Option<Style> {
        self.factories.get(name).map(|f| f(peer))
    }

    /// The registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort();
        names
    }
}

impl fmt::Debug for ComponentRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// A marshalled Typespec summary, as returned by remote spec queries.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecSummary {
    /// The item type's name.
    pub item: String,
    /// The location property at the end of the remote chain.
    pub location: Option<String>,
    /// QoS entries: (dimension, min, max).
    pub qos: Vec<(String, f64, f64)>,
}

fn send_ctrl<L: Link>(link: &L, msg: &CtrlMsg) -> Result<(), RemoteError> {
    let bytes = wire::to_bytes(msg).map_err(|e| RemoteError::Wire(e.to_string()))?;
    if link.send(Frame::Control(bytes)).accepted() {
        Ok(())
    } else {
        Err(RemoteError::Transport(crate::TransportError::Closed))
    }
}

/// Waits for the next control frame; events arriving during setup are
/// skipped (they are not ours to handle yet), data frames are a protocol
/// violation.
fn recv_ctrl<L: Link>(link: &L, what: &str) -> Result<CtrlMsg, RemoteError> {
    let deadline = std::time::Instant::now() + CTRL_TIMEOUT;
    loop {
        match link.recv(POLL) {
            RecvOutcome::Frame(Frame::Control(payload)) => {
                return wire::from_bytes(&payload).map_err(|e| RemoteError::Wire(e.to_string()));
            }
            RecvOutcome::Frame(Frame::Event(_)) | RecvOutcome::TimedOut => {}
            RecvOutcome::Frame(other) => {
                return Err(RemoteError::Protocol(format!(
                    "expected {what}, got a {} frame",
                    frame_name(&other)
                )));
            }
            RecvOutcome::Fin | RecvOutcome::Closed => {
                return Err(RemoteError::Protocol("connection closed".into()));
            }
        }
        // Checked on every iteration: a peer streaming events faster than
        // the poll period must not be able to starve the deadline.
        if std::time::Instant::now() >= deadline {
            return Err(RemoteError::Protocol(format!(
                "timed out waiting for {what}"
            )));
        }
    }
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Data(_) => "data",
        Frame::Event(_) => "event",
        Frame::Control(_) => "control",
        Frame::Fin => "fin",
    }
}

// ---------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------

/// Serves remote-creation requests on accepted links.
pub struct RemoteHost {
    registry: ComponentRegistry,
    node_name: String,
}

impl RemoteHost {
    /// Creates a host publishing the given registry, reporting
    /// `node_name` as its fallback location.
    #[must_use]
    pub fn new(node_name: impl Into<String>, registry: ComponentRegistry) -> RemoteHost {
        RemoteHost {
            registry,
            node_name: node_name.into(),
        }
    }

    /// Serves one accepted link to completion (blocking): builds the
    /// requested pipeline on `kernel`, streams data into it, forwards
    /// events both ways, and returns when the client finishes.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] from the transport or protocol.
    pub fn serve_link<L: Link>(&self, link: &L, kernel: &Kernel) -> Result<(), RemoteError> {
        let peer = link.peer();

        // 1. Expect CreatePipeline.
        let components = match recv_ctrl(link, "CreatePipeline")? {
            CtrlMsg::CreatePipeline { components } => components,
            other => {
                return Err(RemoteError::Protocol(format!(
                    "expected CreatePipeline, got {other:?}"
                )))
            }
        };

        // 2. Build: inbox >> pump >> components...
        let pipeline = Pipeline::new(kernel, "remote");
        let (inbox, inbox_sender) = pipeline.add_inbox("net-in", BufferSpec::bounded(256));
        pipeline.set_transport(inbox, peer.to_string());
        let pump = pipeline.add_pump("net-pump", FreePump::new());
        if let Err(e) = pipeline.connect(inbox, pump) {
            return refuse(link, &e.to_string());
        }
        let mut prev = pump;
        for name in &components {
            let Some(style) = self.registry.make(name, &peer) else {
                return refuse(link, &format!("unknown component '{name}'"));
            };
            let node = pipeline.add_style(name, style);
            if let Err(e) = pipeline.connect(prev, node) {
                return refuse(link, &e.to_string());
            }
            prev = node;
        }

        // Capture the end-of-chain spec for queries before starting.
        let spec = pipeline
            .query_spec(prev)
            .map(|s| CtrlMsg::SpecReply {
                item: s.item().name().to_owned(),
                location: Some(
                    s.location()
                        .map_or_else(|| self.node_name.clone(), ToOwned::to_owned),
                ),
                qos: s
                    .qos_map()
                    .iter()
                    .map(|(k, r)| (k.to_string(), r.min(), r.max()))
                    .collect(),
            })
            .map_err(|e| e.to_string());

        let running = match pipeline.start() {
            Ok(r) => r,
            Err(e) => return refuse(link, &e.to_string()),
        };
        // The pipeline carries this peer's identity (the typespec
        // location rewrite in its Unmarshal stages); it must not outlive
        // the link. `RunningPipeline` keeps running when dropped, so stop
        // it on every exit path — early protocol errors and abrupt link
        // closures included.
        struct StopOnExit<'a>(&'a RunningPipeline);
        impl Drop for StopOnExit<'_> {
            fn drop(&mut self) {
                let _ = self.0.stop();
            }
        }
        let _stop_guard = StopOnExit(&running);
        running
            .start_flow()
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        send_ctrl(link, &CtrlMsg::Created { error: None })?;

        // 3. Forward outbound events (host pipeline → client) from a
        // side thread; the main loop keeps the link's receive side.
        let forwarder = spawn_event_forwarder(link.clone(), &running)
            .map_err(|e| RemoteError::Transport(e.into()))?;
        // Our own subscription, opened before streaming so the pipeline's
        // EOS broadcast cannot slip past between loop exit and teardown —
        // and after the forwarder's, so an event we see here is already
        // in the forwarder's mailbox.
        let eos_probe = running.subscribe();

        // 4. Main frame loop.
        let result = stream_frames(link, &inbox_sender, &running, &spec);
        if result.is_ok() {
            // The stream ended in order: wait (bounded) for the end of
            // stream to drain through the pipeline and surface as the EOS
            // broadcast; stopping the forwarder then flushes it to the
            // client.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while std::time::Instant::now() < deadline {
                if let Some(ControlEvent::Eos) = eos_probe.recv_timeout(Duration::from_millis(50)) {
                    break;
                }
            }
        }
        drop(forwarder);
        result
    }
}

/// The host's streaming loop: data into the inbox, events into the
/// running pipeline, spec queries answered from the build-time capture
/// (the chain is immutable once created).
fn stream_frames<L: Link>(
    link: &L,
    inbox_sender: &InboxSender,
    running: &RunningPipeline,
    spec: &Result<CtrlMsg, String>,
) -> Result<(), RemoteError> {
    loop {
        match link.recv(POLL) {
            RecvOutcome::Frame(Frame::Data(bytes)) => {
                let _ = inbox_sender.put(Item::bytes(bytes));
            }
            RecvOutcome::Frame(Frame::Event(ev)) => {
                let _ = running.send_event(ev.into());
            }
            RecvOutcome::Frame(Frame::Control(payload)) => {
                match wire::from_bytes::<CtrlMsg>(&payload) {
                    Ok(CtrlMsg::QuerySpec) => match spec {
                        Ok(reply) => send_ctrl(link, reply)?,
                        Err(e) => send_ctrl(
                            link,
                            &CtrlMsg::Created {
                                error: Some(e.clone()),
                            },
                        )?,
                    },
                    Ok(other) => {
                        return Err(RemoteError::Protocol(format!(
                            "unexpected mid-stream message {other:?}"
                        )))
                    }
                    Err(e) => return Err(RemoteError::Wire(e.to_string())),
                }
            }
            RecvOutcome::Frame(Frame::Fin) | RecvOutcome::Fin => {
                inbox_sender.finish();
                return Ok(());
            }
            RecvOutcome::Closed => {
                inbox_sender.finish();
                return Err(RemoteError::Protocol("connection closed".into()));
            }
            RecvOutcome::TimedOut => {}
        }
    }
}

/// Forwards the running pipeline's broadcast events to the client until
/// stopped — and then whatever its subscription still holds, so nothing
/// broadcast before the stop is lost to the poll period.
fn spawn_event_forwarder<L: Link>(link: L, running: &RunningPipeline) -> std::io::Result<Worker> {
    let sub = running.subscribe();
    Worker::spawn("remote-event-fwd", move |stop| loop {
        let wait = if stop.requested() {
            Duration::ZERO
        } else {
            POLL
        };
        let Some(ev) = sub.recv_timeout(wait) else {
            if wait.is_zero() {
                return;
            }
            continue;
        };
        let local = matches!(ev, ControlEvent::Start | ControlEvent::Stop);
        if !local && !link.send(Frame::Event(WireEvent::from(&ev))).accepted() {
            return;
        }
    })
}

impl fmt::Debug for RemoteHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteHost")
            .field("node", &self.node_name)
            .field("registry", &self.registry)
            .finish()
    }
}

fn refuse<L: Link>(link: &L, error: &str) -> Result<(), RemoteError> {
    send_ctrl(
        link,
        &CtrlMsg::Created {
            error: Some(error.to_owned()),
        },
    )?;
    Err(RemoteError::Refused(error.to_owned()))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// The client side of a remote-creation session, generic over the
/// transport.
pub struct RemoteClient<L: Link> {
    link: L,
    events_bound: bool,
}

impl<L: Link> RemoteClient<L> {
    /// Connects to a [`RemoteHost`] through the given transport.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect<T: Transport<Link = L>>(
        transport: &T,
        addr: &str,
    ) -> Result<RemoteClient<L>, RemoteError> {
        let link = transport.connect(addr)?;
        Ok(RemoteClient {
            link,
            events_bound: false,
        })
    }

    /// Wraps an already-established link (e.g. an accepted one).
    #[must_use]
    pub fn over(link: L) -> RemoteClient<L> {
        RemoteClient {
            link,
            events_bound: false,
        }
    }

    /// Identity of the host end of the link.
    #[must_use]
    pub fn peer(&self) -> PeerIdentity {
        self.link.peer()
    }

    /// Asks the host to instantiate the named component chain behind its
    /// netpipe end.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Refused`] with the host's reason, or transport
    /// errors.
    pub fn create_pipeline(&mut self, components: &[&str]) -> Result<(), RemoteError> {
        self.ensure_setup_phase()?;
        send_ctrl(
            &self.link,
            &CtrlMsg::CreatePipeline {
                components: components.iter().map(|s| (*s).to_owned()).collect(),
            },
        )?;
        match recv_ctrl(&self.link, "Created")? {
            CtrlMsg::Created { error: None } => Ok(()),
            CtrlMsg::Created { error: Some(e) } => Err(RemoteError::Refused(e)),
            other => Err(RemoteError::Protocol(format!(
                "expected Created, got {other:?}"
            ))),
        }
    }

    /// Queries the Typespec at the end of the remote chain (§2.4's remote
    /// Typespec query). Must be called before
    /// [`RemoteClient::spawn_event_reader`].
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn query_spec(&mut self) -> Result<SpecSummary, RemoteError> {
        self.ensure_setup_phase()?;
        send_ctrl(&self.link, &CtrlMsg::QuerySpec)?;
        match recv_ctrl(&self.link, "SpecReply")? {
            CtrlMsg::SpecReply {
                item,
                location,
                qos,
            } => Ok(SpecSummary {
                item,
                location,
                qos,
            }),
            CtrlMsg::Created { error: Some(e) } => Err(RemoteError::Refused(e)),
            other => Err(RemoteError::Protocol(format!(
                "expected SpecReply, got {other:?}"
            ))),
        }
    }

    /// The producer-side netpipe end: add it as the local pipeline's
    /// sink (or use
    /// [`add_net_sink`](crate::PipelineTransportExt::add_net_sink) with
    /// [`RemoteClient::link`]).
    #[must_use]
    pub fn send_end(&self, name: impl Into<String>) -> crate::NetSendEnd<L> {
        crate::NetSendEnd::new(name, self.link.clone())
    }

    /// The underlying link (for `add_net_sink` and stats probes).
    #[must_use]
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Consumes the read half: events from the host are delivered to
    /// `on_event` on the transport's receive path (e.g. forwarded into
    /// the local pipeline with `RunningPipeline::send_event`). Ends the
    /// setup phase; call after `create_pipeline`/`query_spec`.
    ///
    /// # Errors
    ///
    /// [`TransportError::ReceiverTaken`](crate::TransportError) if called
    /// twice.
    pub fn spawn_event_reader(
        &mut self,
        on_event: impl Fn(ControlEvent) + Send + 'static,
    ) -> Result<(), RemoteError> {
        self.ensure_setup_phase()?;
        self.events_bound = true;
        self.link.bind_receiver(None, on_event)?;
        Ok(())
    }

    fn ensure_setup_phase(&self) -> Result<(), RemoteError> {
        if self.events_bound {
            Err(RemoteError::Protocol("setup phase is over".into()))
        } else {
            Ok(())
        }
    }
}

impl<L: Link> fmt::Debug for RemoteClient<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteClient")
            .field("peer", &self.link.peer().to_string())
            .finish()
    }
}
