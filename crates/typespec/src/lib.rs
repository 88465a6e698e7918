//! Typespecs: descriptions of the information flows an Infopipe supports.
//!
//! A [`Typespec`] captures the properties of a flow at one port of a
//! pipeline component (§2.3 of *Thread Transparency in Information Flow
//! Middleware*):
//!
//! * the **item type** — the format of the information items,
//! * the **polarity** of ports — whether items are pushed or pulled, with
//!   polymorphic components (filters) acquiring an *induced* polarity when
//!   composed,
//! * the **blocking behaviour** when an operation cannot be performed
//!   immediately (block, drop, or return nothing: [`OnFull`], [`OnEmpty`]),
//!   declared and enforced by the buffer that can be full or empty rather
//!   than carried in the spec,
//! * the **control events** a component can send or react to,
//! * **QoS parameter ranges** — frame rates, latency, jitter, bandwidth —
//!   which narrow as specs flow through a pipeline,
//! * a **location** property, changed only by netpipes, that lets type
//!   checking track distribution.
//!
//! Typespecs are *incremental*: components do not carry a fixed spec but
//! **transform** a spec on one port into the spec on their other ports
//! (see [`SpecTransform`]). Composition type-checks by threading a spec
//! from the source through every transformation and checking each
//! connection with [`check_connection`].
//!
//! Undefined properties follow "don't know / don't care" semantics: a
//! property absent from a spec does not constrain composition; when two
//! specs are intersected, only properties present on both sides must agree.
//!
//! # Example
//!
//! ```
//! use typespec::{Polarity, QosKey, QosRange, Typespec};
//!
//! // A source offering 15–60 fps video frames.
//! let offered = Typespec::of::<u32>().with_qos(QosKey::FrameRateHz, QosRange::new(15.0, 60.0));
//! // A sink that can render at most 30 fps.
//! let wanted = Typespec::of::<u32>().with_qos(QosKey::FrameRateHz, QosRange::at_most(30.0));
//! let agreed = offered.intersect(&wanted).unwrap();
//! assert_eq!(
//!     agreed.qos(&QosKey::FrameRateHz).unwrap(),
//!     QosRange::new(15.0, 30.0)
//! );
//! // Push connects to pull; two pushes clash.
//! assert!(Polarity::Positive.unify(Polarity::Negative).is_ok());
//! assert!(Polarity::Positive.unify(Polarity::Positive).is_err());
//! ```

mod blocking;
mod check;
mod error;
mod item_type;
mod polarity;
mod qos;
mod transform;
#[allow(clippy::module_inception)]
mod typespec;

pub use blocking::{OnEmpty, OnFull};
pub use check::{check_chain, check_connection};
pub use error::TypeError;
pub use item_type::ItemType;
pub use polarity::Polarity;
pub use qos::{QosKey, QosMap, QosRange};
pub use transform::{IdentityTransform, SpecTransform};
pub use typespec::Typespec;
