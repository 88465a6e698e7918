//! The pipeline builder: a graph of components, composed with
//! [`Pipeline::connect`] or the `>>` operator, then brought to life with
//! [`Pipeline::start`].

use crate::buffer::{BufHandle, BufferProbe, BufferSpec, PutOutcome};
use crate::error::PipeError;
use crate::item::Item;
use crate::pump::Pump;
use crate::stage::{ActiveObject, Consumer, Function, Producer, Style};
use crate::tee::SplitKind;
use mbthread::{ExternalPort, Kernel, Message, ThreadId};
use parking_lot::Mutex;
use std::fmt;
use std::ops::Shr;
use typespec::{Polarity, Typespec};

/// Identifies a node within one [`Pipeline`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

/// Stages are addressed by their node id when routing control events.
pub(crate) type StageId = NodeId;

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// What a node is.
pub(crate) enum NodeKind {
    /// A component in one of the four activity styles.
    Stage(Style),
    /// A passive boundary buffer (also: merge point / activity switch).
    Buffer(BufHandle),
    /// A pump driving one section.
    Pump(Box<dyn Pump>),
    /// An in-section split tee.
    Split(SplitKind),
}

impl NodeKind {
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Stage(_) => "stage",
            NodeKind::Buffer(_) => "buffer",
            NodeKind::Pump(_) => "pump",
            NodeKind::Split(_) => "split",
        }
    }
}

pub(crate) struct NodeRec {
    pub(crate) name: String,
    /// `None` once the node implementation moved into the running
    /// pipeline.
    pub(crate) kind: Option<NodeKind>,
    /// The transport this node bridges to, when it sits on a planned
    /// section boundary (netpipe send ends and inboxes); surfaced in
    /// [`StagePlacement`](crate::StagePlacement).
    pub(crate) transport: Option<String>,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
}

#[derive(Default)]
pub(crate) struct GraphInner {
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) edges: Vec<Edge>,
}

impl GraphInner {
    pub(crate) fn node(&self, id: NodeId) -> &NodeRec {
        &self.nodes[id.0]
    }

    pub(crate) fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    pub(crate) fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges(id).count()
    }

    fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges(id).count()
    }

    /// The polarity a node presents on the given side, for connection
    /// checking (§2.3): pumps are active on both ends, buffers passive on
    /// both, split tees passive-in/active-out, passive endpoint stages
    /// negative, active endpoint stages positive, and everything else
    /// polymorphic (filters acquire induced polarity).
    pub(crate) fn polarity(&self, id: NodeId, outgoing: bool) -> Polarity {
        match self.nodes[id.0].kind.as_ref() {
            Some(NodeKind::Pump(_)) => Polarity::Positive,
            Some(NodeKind::Buffer(_)) => Polarity::Negative,
            Some(NodeKind::Split(_)) => {
                if outgoing {
                    Polarity::Positive
                } else {
                    Polarity::Negative
                }
            }
            // During construction a stage's eventual position (endpoint or
            // intermediate) is unknown, so all stages are polymorphic here;
            // the planner performs the full activity analysis at start().
            Some(NodeKind::Stage(_)) | None => Polarity::Polymorphic,
        }
    }
}

/// A handle to a node, returned by the `add_*` methods.
///
/// Handles support `a >> b` as sugar for [`Pipeline::connect`]; the
/// operator panics on composition errors, matching the throw-on-mismatch
/// behaviour of the paper's C++ `>>` (§4). Use [`Pipeline::connect`]
/// directly for fallible composition.
#[derive(Copy, Clone)]
pub struct Node<'p> {
    pub(crate) pipeline: &'p Pipeline,
    pub(crate) id: NodeId,
}

impl Node<'_> {
    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node({})", self.id)
    }
}

impl<'p> Shr<Node<'p>> for Node<'p> {
    type Output = Node<'p>;

    /// Connects `self`'s out-port to `rhs`'s in-port.
    ///
    /// # Panics
    ///
    /// Panics when the components are not compatible — mirroring the
    /// paper's composition operator, which throws an exception (§4).
    fn shr(self, rhs: Node<'p>) -> Node<'p> {
        assert!(
            std::ptr::eq(self.pipeline, rhs.pipeline),
            "cannot connect nodes from different pipelines"
        );
        match self.pipeline.connect(self, rhs) {
            Ok(()) => rhs,
            Err(e) => panic!(
                "cannot compose {} >> {}: {e}",
                self.pipeline.node_name(self.id),
                rhs.pipeline.node_name(rhs.id)
            ),
        }
    }
}

/// A pipeline under construction.
///
/// Add components with the `add_*` methods, wire them with
/// [`Pipeline::connect`] or `>>`, then call [`Pipeline::start`]. The
/// middleware then determines which parts of the pipeline require separate
/// threads or coroutines — thread transparency — and runs it.
///
/// # Example
///
/// The paper's video-player composition (§4) translates to:
///
/// ```no_run
/// use infopipes::{ClockedPump, Pipeline};
/// use mbthread::{Kernel, KernelConfig};
///
/// # fn make_source() -> impl infopipes::Producer { infopipes::helpers::IterSource::new("src", std::iter::empty::<u32>()) }
/// # fn make_decoder() -> impl infopipes::Function { infopipes::helpers::FnFunction::new("dec", |x: u32| Some(x)) }
/// # fn make_display() -> impl infopipes::Consumer { infopipes::helpers::CollectSink::<u32>::new("sink").0 }
/// let kernel = Kernel::new(KernelConfig::default());
/// let pipeline = Pipeline::new(&kernel, "player");
/// let source = pipeline.add_producer("mpeg-file", make_source());
/// let decode = pipeline.add_function("mpeg-decoder", make_decoder());
/// let pump = pipeline.add_pump("pump", ClockedPump::hz(30.0));
/// let sink = pipeline.add_consumer("video-display", make_display());
/// let _ = source >> decode >> pump >> sink;
/// let running = pipeline.start().unwrap();
/// running.send_event(infopipes::ControlEvent::Start).unwrap();
/// ```
pub struct Pipeline {
    pub(crate) kernel: Kernel,
    pub(crate) name: String,
    pub(crate) g: Mutex<GraphInner>,
}

impl Pipeline {
    /// Creates an empty pipeline that will run on the given kernel.
    #[must_use]
    pub fn new(kernel: &Kernel, name: impl Into<String>) -> Pipeline {
        Pipeline {
            kernel: kernel.clone(),
            name: name.into(),
            g: Mutex::new(GraphInner::default()),
        }
    }

    /// The pipeline's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    fn add_node(&self, name: &str, kind: NodeKind) -> Node<'_> {
        let mut g = self.g.lock();
        let id = NodeId(g.nodes.len());
        g.nodes.push(NodeRec {
            name: name.to_owned(),
            kind: Some(kind),
            transport: None,
        });
        Node { pipeline: self, id }
    }

    pub(crate) fn node_name(&self, id: NodeId) -> String {
        self.g.lock().nodes[id.0].name.clone()
    }

    /// Adds a passive push-style component (consumer).
    pub fn add_consumer(&self, name: &str, c: impl Consumer) -> Node<'_> {
        self.add_node(name, NodeKind::Stage(Style::Consumer(Box::new(c))))
    }

    /// Adds a passive pull-style component (producer).
    pub fn add_producer(&self, name: &str, p: impl Producer) -> Node<'_> {
        self.add_node(name, NodeKind::Stage(Style::Producer(Box::new(p))))
    }

    /// Adds a conversion-function component.
    pub fn add_function(&self, name: &str, f: impl Function) -> Node<'_> {
        self.add_node(name, NodeKind::Stage(Style::Function(Box::new(f))))
    }

    /// Adds an active-object component (a component with its own main
    /// loop).
    pub fn add_active(&self, name: &str, a: impl ActiveObject) -> Node<'_> {
        self.add_node(name, NodeKind::Stage(Style::Active(Box::new(a))))
    }

    /// Adds a component whose activity style was chosen at runtime —
    /// used by remote factories, which receive boxed [`Style`]s from a
    /// registry.
    pub fn add_style(&self, name: &str, style: Style) -> Node<'_> {
        self.add_node(name, NodeKind::Stage(style))
    }

    /// Adds a pump.
    pub fn add_pump(&self, name: &str, p: impl Pump) -> Node<'_> {
        self.add_node(name, NodeKind::Pump(Box::new(p)))
    }

    /// Adds a buffer with both policies blocking.
    pub fn add_buffer(&self, name: &str, capacity: usize) -> Node<'_> {
        self.add_buffer_with(name, BufferSpec::bounded(capacity))
    }

    /// Adds a buffer with explicit policies.
    pub fn add_buffer_with(&self, name: &str, spec: BufferSpec) -> Node<'_> {
        self.add_node(name, NodeKind::Buffer(BufHandle::new(name, spec)))
    }

    /// Adds a multicast split tee (items must be cloneable).
    pub fn add_multicast(&self, name: &str) -> Node<'_> {
        self.add_node(name, NodeKind::Split(SplitKind::Multicast))
    }

    /// Adds a routing split tee: each item goes to the branch picked by
    /// `route` (in the order branches were connected).
    pub fn add_router(
        &self,
        name: &str,
        route: impl FnMut(&Item) -> usize + Send + 'static,
    ) -> Node<'_> {
        self.add_node(name, NodeKind::Split(SplitKind::router(route)))
    }

    /// Adds an externally fed buffer: the returned [`InboxSender`] injects
    /// items from outside the kernel (network receivers, OS signal
    /// handlers), which the platform maps to messages. This is how
    /// netpipes deliver arrivals into a consumer-side pipeline.
    pub fn add_inbox(&self, name: &str, spec: BufferSpec) -> (Node<'_>, InboxSender) {
        let handle = BufHandle::new(name, spec);
        handle.mark_external_writer();
        let sender = InboxSender {
            buf: handle.clone(),
            port: self.kernel.external(&format!("inbox-{name}")),
        };
        let node = self.add_node(name, NodeKind::Buffer(handle));
        (node, sender)
    }

    /// Names the transport a node bridges to (e.g. `tcp://10.0.0.7:4000`
    /// for a netpipe send end, or the peer of the link feeding an
    /// inbox). The planner carries the label into the matching
    /// [`StagePlacement`](crate::StagePlacement), so a plan report shows
    /// *where* a section boundary leaves the process — the
    /// transport-placement hook of the pluggable netpipe layer.
    pub fn set_transport(&self, node: Node<'_>, transport: impl Into<String>) {
        let mut g = self.g.lock();
        g.nodes[node.id.0].transport = Some(transport.into());
    }

    /// A read-only probe on a buffer node (fill level, drops), for
    /// feedback sensors.
    ///
    /// Returns `None` if the node is not a buffer.
    #[must_use]
    pub fn buffer_probe(&self, node: Node<'_>) -> Option<BufferProbe> {
        let g = self.g.lock();
        match g.nodes[node.id.0].kind.as_ref() {
            Some(NodeKind::Buffer(h)) => Some(BufferProbe { handle: h.clone() }),
            _ => None,
        }
    }

    /// Connects `from`'s out-port to `to`'s in-port, checking port arity
    /// and polarity compatibility immediately. (Flow specs are checked at
    /// [`Pipeline::start`], once the whole graph is known.)
    ///
    /// # Errors
    ///
    /// [`PipeError::PortInUse`] when a single-connection port is already
    /// taken; [`PipeError::Type`] on polarity clashes.
    pub fn connect(&self, from: Node<'_>, to: Node<'_>) -> Result<(), PipeError> {
        let mut g = self.g.lock();
        // Arity checks.
        let out_limit = match g.nodes[from.id.0].kind.as_ref() {
            Some(NodeKind::Stage(_) | NodeKind::Pump(_)) => Some(1),
            Some(NodeKind::Split(_) | NodeKind::Buffer(_)) => None,
            None => return Err(PipeError::AlreadyStarted),
        };
        if let Some(limit) = out_limit {
            if g.out_degree(from.id) >= limit {
                return Err(PipeError::PortInUse {
                    node: from.id,
                    port: "out".into(),
                });
            }
        }
        let in_limit = match g.nodes[to.id.0].kind.as_ref() {
            Some(NodeKind::Stage(_) | NodeKind::Pump(_) | NodeKind::Split(_)) => Some(1),
            Some(NodeKind::Buffer(_)) => None,
            None => return Err(PipeError::AlreadyStarted),
        };
        if let Some(limit) = in_limit {
            if g.in_degree(to.id) >= limit {
                return Err(PipeError::PortInUse {
                    node: to.id,
                    port: "in".into(),
                });
            }
        }
        // Polarity compatibility with the graph as currently known.
        let out_pol = g.polarity(from.id, true);
        let in_pol = g.polarity(to.id, false);
        out_pol.unify(in_pol).map_err(PipeError::Type).map(|_| ())?;
        g.edges.push(Edge {
            from: from.id,
            to: to.id,
        });
        Ok(())
    }

    /// The kernel this pipeline runs on.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Computes the Typespec of the flow offered at a node's output by
    /// propagating specs from the sources, without starting the pipeline —
    /// the "Typespec query" of §2.3.
    ///
    /// # Errors
    ///
    /// Any composition [`PipeError`] discovered along the way.
    pub fn query_spec(&self, node: Node<'_>) -> Result<Typespec, PipeError> {
        let g = self.g.lock();
        crate::plan::flow_spec_at(&g, node.id)
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.g.lock();
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("nodes", &g.nodes.len())
            .field("edges", &g.edges.len())
            .finish()
    }
}

/// Feeds items into an inbox buffer from outside the kernel.
///
/// Created by [`Pipeline::add_inbox`]. Used by netpipes and device drivers
/// to map external events (network packets, OS signals) to messages.
pub struct InboxSender {
    buf: BufHandle,
    port: ExternalPort,
}

impl InboxSender {
    /// Stores `item` and sends the wake-ups through `post`; `false` if
    /// the buffer dropped or refused it.
    fn put_with(&self, item: Item, post: impl FnMut(ThreadId, Message)) -> bool {
        match self.buf.try_put(item) {
            PutOutcome::Stored(wake) => {
                wake.post(post);
                true
            }
            PutOutcome::Dropped(_) | PutOutcome::MustWait(_) => false,
        }
    }

    /// Injects an item. Returns `false` if the buffer was full and its
    /// policy discarded the item (or refused it: a `Block` policy cannot
    /// suspend an external sender, so a full blocking inbox also refuses).
    pub fn put(&self, item: Item) -> bool {
        self.put_with(item, |t, msg| {
            let _ = self.port.send(t, msg);
        })
    }

    /// Signals end of stream to the pipeline.
    pub fn finish(&self) {
        self.buf.mark_eos().post(|t, msg| {
            let _ = self.port.send(t, msg);
        });
    }

    /// Injects an item from a *kernel* thread (e.g. a netpipe link
    /// thread), sending wakeups through the given context instead of the
    /// external port. Returns `false` if the buffer refused the item.
    pub fn put_via(&self, ctx: &mut mbthread::Ctx<'_>, item: Item) -> bool {
        self.put_with(item, |t, msg| {
            let _ = ctx.send(t, msg);
        })
    }

    /// Signals end of stream from a kernel thread.
    pub fn finish_via(&self, ctx: &mut mbthread::Ctx<'_>) {
        self.buf.mark_eos().post(|t, msg| {
            let _ = ctx.send(t, msg);
        });
    }

    /// Current statistics of the underlying buffer.
    #[must_use]
    pub fn stats(&self) -> crate::buffer::BufferStats {
        self.buf.stats()
    }
}

impl fmt::Debug for InboxSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InboxSender")
            .field("buffer", &self.buf.name())
            .finish()
    }
}
