//! Facade crate for the whole Infopipes system: re-exports every layer so
//! the root-level integration tests and examples (and downstream users)
//! need a single dependency.
//!
//! Layer map:
//!
//! * [`mbthread`] — message-based user-level threads (§4 substrate)
//! * [`typespec`] — flow typing and QoS algebra (§2.3)
//! * [`infopipes`] — pipelines, planner, runtime (§2–3)
//! * [`media`] — video/MIDI components for the paper's workloads
//! * [`feedback`] — feedback loops and controllers (Fig. 1)
//! * [`netpipe`] — netpipes: marshalling, transports, remote factories (§2.4)

#![warn(missing_docs)]

pub use feedback;
pub use infopipes;
pub use mbthread;
pub use media;
pub use netpipe;
pub use typespec;
