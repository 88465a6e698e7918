//! Control events: the out-of-band signalling channel of an Infopipe.
//!
//! Besides exchanging data items, components exchange control messages:
//! local interaction between adjacent components (an MPEG decoder telling
//! its downstream when shared reference frames may be freed, a display
//! telling a resizer about a new window size) and global broadcast events
//! (user commands like *start* and *stop*) distributed by the pipeline's
//! event service (§2.2).
//!
//! Control events are delivered with [`Priority::CONTROL`]
//! (mbthread::Priority::CONTROL) — higher than any data processing — and
//! can reach a component even while its thread is blocked in a `push` or
//! `pull`. Handlers are assumed to be short (§2.2): there is no timing or
//! buffering control for events themselves.

use crate::item::Item;
use mbthread::{Constraint, Message, Priority};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A control event exchanged between pipeline components.
///
/// Events are cheap to clone so the event service can broadcast them.
/// Netpipes carry them as they are: the variant and field order is the
/// wire format, so a new variant goes last.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ControlEvent {
    /// Start the pipeline: pumps begin scheduling cycles.
    Start,
    /// Stop the pipeline: pumps cease scheduling; blocked cycles abort.
    Stop,
    /// End of stream: each stage hears it once, after its last item.
    Eos,
    /// Adjust a pump's rate (Hz). Interpreted by rate-controllable pumps.
    SetRate(f64),
    /// Adjust a drop filter's aggressiveness (0 = pass everything).
    SetDropLevel(u8),
    /// The display window changed size (the paper's resizer example).
    WindowResize {
        /// New width in pixels.
        width: u32,
        /// New height in pixels.
        height: u32,
    },
    /// A downstream component no longer needs the shared item with this
    /// sequence number (the paper's reference-frame release example).
    FrameRelease(u64),
    /// A named application event carrying an optional scalar, e.g. a
    /// feedback report.
    Custom {
        /// Event name, used for dispatch.
        name: Arc<str>,
        /// Scalar payload (sensor reading, knob position, ...).
        value: f64,
    },
}

impl ControlEvent {
    /// Creates a custom event.
    #[must_use]
    pub fn custom(name: impl AsRef<str>, value: f64) -> ControlEvent {
        ControlEvent::Custom {
            name: Arc::from(name.as_ref()),
            value,
        }
    }

    /// A short stable name for the event kind, used in Typespec event
    /// capability sets and for wire encoding.
    #[must_use]
    pub fn kind_name(&self) -> &str {
        match self {
            ControlEvent::Start => "start",
            ControlEvent::Stop => "stop",
            ControlEvent::Eos => "eos",
            ControlEvent::SetRate(_) => "set-rate",
            ControlEvent::SetDropLevel(_) => "set-drop-level",
            ControlEvent::WindowResize { .. } => "window-resize",
            ControlEvent::FrameRelease(_) => "frame-release",
            ControlEvent::Custom { name, .. } => name,
        }
    }
}

impl fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlEvent::SetRate(hz) => write!(f, "set-rate({hz})"),
            ControlEvent::SetDropLevel(l) => write!(f, "set-drop-level({l})"),
            ControlEvent::WindowResize { width, height } => {
                write!(f, "window-resize({width}x{height})")
            }
            ControlEvent::FrameRelease(seq) => write!(f, "frame-release({seq})"),
            ControlEvent::Custom { name, value } => write!(f, "{name}({value})"),
            other => f.write_str(other.kind_name()),
        }
    }
}

/// Where an event should be delivered.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum EventTarget {
    /// Every stage and pump in the pipeline.
    Broadcast,
    /// One specific stage.
    Stage(crate::graph::StageId),
}

/// The payload of a `TAG_CTRL` kernel message.
#[derive(Debug)]
pub(crate) struct EventMsg {
    pub(crate) event: ControlEvent,
    pub(crate) target: EventTarget,
}

impl EventMsg {
    /// The kernel message that carries `event` to `target`, and the
    /// constraint every control event travels under: more urgent than any
    /// data processing (§2.2).
    pub(crate) fn message(
        event: &ControlEvent,
        target: EventTarget,
    ) -> (Message, Option<Constraint>) {
        let event = event.clone();
        (
            Message::new(tags::CTRL, EventMsg { event, target }),
            Some(Constraint::priority(Priority::CONTROL)),
        )
    }
}

/// Kernel message tags used by the Infopipe runtime.
pub(crate) mod tags {
    use mbthread::Tag;

    /// A pump cycle trigger (timer delivery or self-post).
    pub(crate) const TICK: Tag = Tag(0x4950_0001);
    /// A buffer informs a waiting downstream owner that an item arrived.
    pub(crate) const ARRIVAL: Tag = Tag(0x4950_0002);
    /// Synchronous get request to a coroutine (payload: an empty
    /// [`ItemSlot`](super::ItemSlot); reply: the slot with the item, or
    /// empty at end of stream).
    pub(crate) const GET: Tag = Tag(0x4950_0003);
    /// Synchronous put request to a coroutine (payload: an
    /// [`ItemSlot`](super::ItemSlot) with the item; reply, the ack: the
    /// slot emptied).
    pub(crate) const PUT: Tag = Tag(0x4950_0004);
    /// A control event ([`EventMsg`](super::EventMsg) payload).
    pub(crate) const CTRL: Tag = Tag(0x4950_0005);
    /// A buffer informs a waiting upstream owner that space freed up.
    pub(crate) const SPACE: Tag = Tag(0x4950_0006);
    /// The `PUT` stream of a push-position coroutine is over (no payload,
    /// no reply): the one way such a coroutine learns of end of stream.
    pub(crate) const END: Tag = Tag(0x4950_0007);

    /// Tags that may interrupt a blocked data operation.
    pub(crate) const INTERRUPTS: &[Tag] = &[CTRL];
}

/// The body of every `GET` and `PUT` request and of its reply: a box the
/// requester owns. It travels with the request and comes back with the
/// reply, so once the requester has one a coroutine hand-off allocates
/// nothing.
pub(crate) type ItemSlot = Box<Option<Item>>;

/// Takes the [`ItemSlot`] out of a `GET` or `PUT` message or its reply; a
/// message without one yields a fresh empty slot.
pub(crate) fn take_slot(msg: &mut Message) -> ItemSlot {
    msg.take_boxed_body()
        .downcast()
        .unwrap_or_else(|_| Box::new(None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ControlEvent::Start.kind_name(), "start");
        assert_eq!(ControlEvent::Stop.kind_name(), "stop");
        assert_eq!(ControlEvent::Eos.kind_name(), "eos");
        assert_eq!(ControlEvent::SetRate(30.0).kind_name(), "set-rate");
        assert_eq!(ControlEvent::SetDropLevel(1).kind_name(), "set-drop-level");
        assert_eq!(
            ControlEvent::WindowResize {
                width: 1,
                height: 2
            }
            .kind_name(),
            "window-resize"
        );
        assert_eq!(ControlEvent::FrameRelease(1).kind_name(), "frame-release");
        assert_eq!(
            ControlEvent::custom("fill-level", 0.5).kind_name(),
            "fill-level"
        );
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(ControlEvent::SetRate(24.0).to_string(), "set-rate(24)");
        assert_eq!(
            ControlEvent::WindowResize {
                width: 640,
                height: 480
            }
            .to_string(),
            "window-resize(640x480)"
        );
        assert_eq!(ControlEvent::custom("x", 1.5).to_string(), "x(1.5)");
        assert_eq!(ControlEvent::Start.to_string(), "start");
    }

    #[test]
    fn events_clone_and_compare() {
        let e = ControlEvent::custom("fill", 0.25);
        assert_eq!(e.clone(), e);
        assert_ne!(e, ControlEvent::custom("fill", 0.5));
    }
}
