//! Infopipes: information-flow middleware with transparent thread and
//! coroutine management.
//!
//! This crate reproduces the middleware of *Thread Transparency in
//! Information Flow Middleware* (Koster, Black, Huang, Walpole, Pu;
//! Middleware 2001). Applications build **pipelines** from components —
//! sources, filters, buffers, pumps, tees, sinks — and the middleware
//! handles everything thread-related:
//!
//! * From the configuration it determines which parts of a pipeline need
//!   separate threads or **coroutines** ([`Pipeline::start`], the planner
//!   of [`plan`]).
//! * Components may be written as **passive consumers**, **passive
//!   producers**, plain **functions**, or **active objects** — whichever
//!   style is most natural — and are reusable in any position; generated
//!   glue adapts styles to positions ([`Consumer`], [`Producer`],
//!   [`Function`], [`ActiveObject`]).
//! * **Pumps** encapsulate all timing control and scheduler interaction
//!   ([`ClockedPump`], [`FreePump`]); choosing a pump is the only
//!   scheduling decision an application makes.
//! * Inter-thread synchronization is hidden inside buffers and message
//!   passing; no component ever touches a lock or semaphore.
//! * **Control events** ([`ControlEvent`]) flow out-of-band at high
//!   priority, reaching components even while their threads are blocked
//!   in a `push` or `pull`.
//! * **Typespecs** (re-exported from [`typespec`]) describe the flows
//!   each component supports; composition is type-checked.
//!
//! # Quickstart
//!
//! The paper's video-player composition (§4) in this crate's API:
//!
//! ```
//! use infopipes::helpers::{CollectSink, FnFunction, IterSource};
//! use infopipes::{ClockedPump, ControlEvent, Pipeline};
//! use mbthread::{Kernel, KernelConfig};
//!
//! // A deterministic kernel: virtual time makes the 30 Hz pump run
//! // "instantly" in tests.
//! let kernel = Kernel::new(KernelConfig::virtual_time());
//! let pipeline = Pipeline::new(&kernel, "player");
//!
//! let source = pipeline.add_producer("file", IterSource::new("file", 0u32..10));
//! let decode = pipeline.add_function("decode", FnFunction::new("decode", |x: u32| Some(x * 2)));
//! let pump = pipeline.add_pump("pump", ClockedPump::hz(30.0));
//! let (sink, collected) = CollectSink::<u32>::new("display");
//! let display = pipeline.add_consumer("display", sink);
//!
//! let _ = source >> decode >> pump >> display;
//!
//! let running = pipeline.start().unwrap();
//! running.start_flow().unwrap();
//! running.wait_quiescent();
//! assert_eq!(*collected.lock(), (0..10).map(|x| x * 2).collect::<Vec<_>>());
//! kernel.shutdown();
//! ```

#![warn(missing_docs)]

mod buffer;
pub mod digest;
mod error;
mod events;
mod graph;
mod item;
mod payload;
pub mod plan;
mod pool;
mod pump;
mod runtime;
mod stage;
mod stats;
mod tee;

pub mod helpers;

pub use buffer::{BufferProbe, BufferSpec, BufferStats};
pub use digest::Digest64;
pub use error::PipeError;
pub use events::ControlEvent;
pub use graph::{InboxSender, Node, NodeId, Pipeline};
pub use item::{Item, Meta};
pub use payload::{payload_copy_count, PayloadBytes};
pub use plan::{Exec, Mode, PlanReport, SectionReport, StagePlacement};
pub use pool::{BufferPool, PoolBuffer, PoolStats};
pub use pump::{ClockedPump, CycleOutcome, FreePump, Pump, Schedule};
pub use runtime::{ActiveCtx, EventCtx, EventSubscription, RunningPipeline, StageCtx};
pub use stage::{ActiveObject, ActiveRun, Consumer, Function, Producer, Stage, Style};
pub use stats::{
    EntitySample, Metric, MetricValue, SourceBody, SourceId, SourceSample, StatsRegistry,
    StatsSnapshot,
};

// Re-export the flow-typing vocabulary so users need only one import.
pub use typespec::{ItemType, OnEmpty, OnFull, Polarity, QosKey, QosRange, TypeError, Typespec};

impl Pipeline {
    /// Plans and launches the pipeline: sections are identified, threads
    /// and coroutines allocated (thread transparency, §3), flow specs
    /// checked, and all section threads spawned. The flow begins when
    /// [`ControlEvent::Start`] is broadcast
    /// ([`RunningPipeline::start_flow`]).
    ///
    /// # Errors
    ///
    /// Any [`PipeError`] describing an invalid composition: missing or
    /// duplicated activity, a tee in pull position, or flow-spec
    /// mismatches.
    pub fn start(self) -> Result<RunningPipeline, PipeError> {
        let kernel = self.kernel.clone();
        let name = self.name.clone();
        let mut g = self.g.into_inner();
        let neighbors = plan::compute_neighbors(&g);
        let built = plan::plan(&mut g)?;
        runtime::launch_pipeline(kernel, name, built, neighbors)
    }
}
