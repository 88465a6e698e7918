//! Activity styles: the four ways to implement a pipeline component
//! (§3.3).
//!
//! A component with one input and one output can be written as:
//!
//! * a **passive consumer** — implements [`Consumer::push`]; may emit any
//!   number of downstream items per input via [`StageCtx::put`],
//! * a **passive producer** — implements [`Producer::pull`]; may take any
//!   number of upstream items per output via [`StageCtx::get`],
//! * a **function** — implements [`Function::convert`], a 0-or-1-to-one
//!   mapping with no interaction,
//! * an **active object** — implements [`ActiveObject::run`], a main loop
//!   that freely mixes [`StageCtx::get`] and [`StageCtx::put`].
//!
//! *Thread transparency* means the choice is purely stylistic: the planner
//! ([`crate::Pipeline::start`]) decides whether a given component can be
//! invoked by direct function calls or needs a coroutine, and the generated
//! glue makes all four styles externally indistinguishable (Figs. 4–8 of
//! the paper). Pick whichever style makes the component simplest — a
//! defragmenter is natural in pull style, a fragmenter in push style, and
//! reused legacy loops stay active.

use crate::events::ControlEvent;
use crate::item::Item;
use crate::runtime::{EventCtx, StageCtx};
use typespec::{TypeError, Typespec};

/// Behaviour shared by all activity styles: control events and Typespec
/// participation.
///
/// The default implementations accept any flow, transform specs by
/// identity, and ignore control events.
pub trait Stage: Send + 'static {
    /// A short name for diagnostics; defaults to the type name.
    fn name(&self) -> &str {
        std::any::type_name::<Self>()
    }

    /// Handles a control event addressed to (or broadcast past) this
    /// component. Handlers should be short (§2.2); they run at control
    /// priority. [`ControlEvent::Eos`] arrives once, after the last item.
    fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        let _ = (ctx, event);
    }

    /// The flow spec this component requires at its in-port.
    fn accepts(&self) -> Typespec {
        Typespec::new()
    }

    /// Derives the out-port spec from the agreed in-port spec
    /// (see [`typespec::SpecTransform`]).
    ///
    /// # Errors
    ///
    /// A [`TypeError`] when this component cannot process the flow.
    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        Ok(input.clone())
    }

    /// For sources only: the spec of the flow this component originates.
    fn offers(&self) -> Typespec {
        Typespec::new()
    }
}

/// A passive component driven by upstream pushes (the paper's *consumer*
/// style, Fig. 4a).
pub trait Consumer: Stage {
    /// Handles one pushed item; may call [`StageCtx::put`] zero or more
    /// times to emit downstream.
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item);
}

/// A passive component driven by downstream pulls (the paper's *producer*
/// style, Fig. 4b).
pub trait Producer: Stage {
    /// Produces the next item; may call [`StageCtx::get`] zero or more
    /// times to take from upstream. Returns `None` at end of stream (or,
    /// for non-blocking sources, when nothing is available).
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item>;
}

/// A stateless-looking conversion component (the paper's *function* style):
/// at most one output per input, no upstream/downstream interaction.
pub trait Function: Stage {
    /// Converts one item; `None` drops it.
    fn convert(&mut self, item: Item) -> Option<Item>;
}

/// A component with its own main loop (the paper's *active object* style,
/// Figs. 5–6), e.g. reused legacy code that interleaves sends and receives
/// however it likes.
pub trait ActiveObject: Stage {
    /// The component's main function. It should loop, calling
    /// [`StageCtx::get`]/[`StageCtx::put`], until `get` returns `None`
    /// (upstream end of stream) or [`StageCtx::stopping`] turns true.
    fn run(&mut self, ctx: &mut StageCtx<'_, '_>);
}

/// A component implementation in one of the four activity styles, ready to
/// be added to a [`Pipeline`](crate::Pipeline).
pub enum Style {
    /// Passive push-driven implementation.
    Consumer(Box<dyn Consumer>),
    /// Passive pull-driven implementation.
    Producer(Box<dyn Producer>),
    /// Conversion-function implementation.
    Function(Box<dyn Function>),
    /// Active-object implementation.
    Active(Box<dyn ActiveObject>),
}

impl Style {
    /// The style's name as used in plan reports ("consumer", "producer",
    /// "function", "active").
    #[must_use]
    pub(crate) fn style_name(&self) -> &'static str {
        match self {
            Style::Consumer(_) => "consumer",
            Style::Producer(_) => "producer",
            Style::Function(_) => "function",
            Style::Active(_) => "active",
        }
    }

    /// The wrapped component, whatever its style.
    pub(crate) fn stage(&self) -> &dyn Stage {
        match self {
            Style::Consumer(c) => c.as_ref(),
            Style::Producer(p) => p.as_ref(),
            Style::Function(f) => f.as_ref(),
            Style::Active(a) => a.as_ref(),
        }
    }

    /// [`Style::stage`], mutably.
    pub(crate) fn stage_mut(&mut self) -> &mut dyn Stage {
        match self {
            Style::Consumer(c) => c.as_mut(),
            Style::Producer(p) => p.as_mut(),
            Style::Function(f) => f.as_mut(),
            Style::Active(a) => a.as_mut(),
        }
    }
}

impl std::fmt::Debug for Style {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.style_name(), self.stage().name())
    }
}
