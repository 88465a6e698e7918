//! Messages, envelopes, and mailbox match specifications.
//!
//! All inter-thread communication is carried by [`Message`]s wrapped in
//! [`Envelope`]s. An envelope records the sender, an optional scheduling
//! [`Constraint`], and — for synchronous sends — a reply token that routes
//! the answer back to the waiting thread. Network packets, timer
//! expirations, and OS signals are mapped to messages by the platform, so a
//! code function sees a single uniform event interface.

use crate::constraint::Constraint;
use crate::thread::ThreadId;
use std::any::Any;
use std::fmt;

/// A small integer identifying the meaning of a message.
///
/// Tags are how code functions dispatch on incoming messages and how
/// [`MatchSpec`]s select which messages can interrupt a blocked operation.
/// Higher layers define their own tag constants; tag values have no meaning
/// to the kernel itself.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u32);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag:{}", self.0)
    }
}

/// The payload of a message: any sendable value, type-erased.
pub type Body = Box<dyn Any + Send>;

/// A tagged, type-erased message body.
pub struct Message {
    tag: Tag,
    body: Body,
}

impl Message {
    /// Creates a message with the given tag and payload.
    #[must_use]
    pub fn new<T: Any + Send>(tag: Tag, body: T) -> Self {
        Message {
            tag,
            body: Box::new(body),
        }
    }

    /// Creates a message with a tag and no payload.
    #[must_use]
    pub fn signal(tag: Tag) -> Self {
        Message::new(tag, ())
    }

    /// The message tag.
    #[must_use]
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// Borrows the body if it has type `T`.
    #[must_use]
    pub fn body_ref<T: Any>(&self) -> Option<&T> {
        self.body.downcast_ref::<T>()
    }

    /// Consumes the message and extracts the body as `T`.
    ///
    /// # Errors
    ///
    /// Returns the message unchanged if the body is not a `T`, so callers
    /// can recover and try another type.
    pub fn into_body<T: Any>(self) -> Result<T, Message> {
        match self.body.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(body) => Err(Message {
                tag: self.tag,
                body,
            }),
        }
    }

    /// Moves the body out of the message if it is a `T`, leaving `()` in
    /// its place. Useful when the message must be kept (e.g. to reply to
    /// its envelope) after the payload has been consumed.
    pub fn take_body<T: Any + Send>(&mut self) -> Option<T> {
        if !self.body.is::<T>() {
            return None;
        }
        let body = std::mem::replace(&mut self.body, Box::new(()));
        match body.downcast::<T>() {
            Ok(b) => Some(*b),
            Err(_) => unreachable!("checked is::<T>() above"),
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message").field("tag", &self.tag).finish()
    }
}

/// A sequence number uniquely identifying a pending synchronous send.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ReplyToken(pub(crate) u64);

/// A message in flight, together with its routing metadata.
pub struct Envelope {
    pub(crate) from: Option<ThreadId>,
    pub(crate) msg: Message,
    pub(crate) constraint: Option<Constraint>,
    /// Set when this envelope is a synchronous request: replies must carry
    /// this token back to `from`.
    pub(crate) reply_to: Option<ReplyToken>,
    /// Set when this envelope *is* a reply to the given token.
    pub(crate) in_reply: Option<ReplyToken>,
    /// Kernel-wide send sequence number; preserves FIFO order in traces.
    pub(crate) seq: u64,
}

impl Envelope {
    /// The sending thread, if the message came from inside the kernel.
    /// `None` for messages injected from an [`ExternalPort`](crate::ExternalPort)
    /// (crate::ExternalPort) or by a timer.
    #[must_use]
    pub fn from(&self) -> Option<ThreadId> {
        self.from
    }

    /// The carried message.
    #[must_use]
    pub fn message(&self) -> &Message {
        &self.msg
    }

    /// Mutable access to the carried message, e.g. to
    /// [`Message::take_body`] while keeping the envelope for a later
    /// reply.
    pub fn message_mut(&mut self) -> &mut Message {
        &mut self.msg
    }

    /// The message tag (shorthand for `self.message().tag()`).
    #[must_use]
    pub fn tag(&self) -> Tag {
        self.msg.tag()
    }

    /// The scheduling constraint attached by the sender, if any.
    #[must_use]
    pub fn constraint(&self) -> Option<Constraint> {
        self.constraint
    }

    /// Whether the sender is blocked waiting for a reply to this envelope.
    #[must_use]
    pub fn wants_reply(&self) -> bool {
        self.reply_to.is_some()
    }

    /// Consumes the envelope, returning the message.
    #[must_use]
    pub fn into_message(self) -> Message {
        self.msg
    }

    /// Consumes the envelope and extracts a body of type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the body is not a `T`; use [`Message::into_body`] via
    /// [`Envelope::into_message`] for a fallible extraction.
    #[must_use]
    #[track_caller]
    pub fn expect_body<T: Any>(self) -> T {
        let tag = self.tag();
        match self.msg.into_body::<T>() {
            Ok(b) => b,
            Err(_) => panic!(
                "message {tag} does not carry a {}",
                std::any::type_name::<T>()
            ),
        }
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("from", &self.from)
            .field("tag", &self.msg.tag())
            .field("constraint", &self.constraint)
            .field("wants_reply", &self.wants_reply())
            .field("seq", &self.seq)
            .finish()
    }
}

/// Selects which envelopes a blocked receive accepts.
///
/// A thread suspended in a receive (or blocked in a synchronous send) is
/// woken only by envelopes matching its spec; everything else stays queued
/// in arrival order. This is how the Infopipe layer keeps a component
/// "responsive to control events" while it is blocked in a `push` or `pull`
/// (§4): it waits with a spec matching *either* the expected data reply *or*
/// any control tag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum MatchSpec {
    /// Accept any envelope.
    #[default]
    Any,
    /// Accept envelopes whose tag is in the given set.
    Tags(Vec<Tag>),
    /// Accept only the reply to the given pending token.
    Reply(u64),
    /// Accept the reply to the given token, or any envelope whose tag is in
    /// the set (used to stay receptive to control events while blocked).
    ReplyOrTags(u64, Vec<Tag>),
}

impl MatchSpec {
    /// Whether `env` satisfies this spec.
    #[must_use]
    pub fn matches(&self, env: &Envelope) -> bool {
        self.as_ref().matches(env)
    }

    pub(crate) fn as_ref(&self) -> SpecRef<'_> {
        match self {
            MatchSpec::Any => SpecRef::ANY,
            MatchSpec::Tags(tags) => SpecRef::tags(tags),
            MatchSpec::Reply(tok) => SpecRef::reply_or_tags(*tok, &[]),
            MatchSpec::ReplyOrTags(tok, tags) => SpecRef::reply_or_tags(*tok, tags),
        }
    }
}

/// The borrowed form of a [`MatchSpec`] that receives are matched against,
/// so a wait on a caller's `&[Tag]` needs no owned tag set.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SpecRef<'a> {
    pub(crate) any: bool,
    pub(crate) reply: Option<ReplyToken>,
    pub(crate) tags: &'a [Tag],
}

impl<'a> SpecRef<'a> {
    pub(crate) const ANY: SpecRef<'static> = SpecRef {
        any: true,
        reply: None,
        tags: &[],
    };

    pub(crate) fn tags(tags: &'a [Tag]) -> Self {
        SpecRef {
            any: false,
            reply: None,
            tags,
        }
    }

    pub(crate) fn reply_or_tags(token: u64, tags: &'a [Tag]) -> Self {
        SpecRef {
            any: false,
            reply: Some(ReplyToken(token)),
            tags,
        }
    }

    /// Whether `env` is the reply this spec waits for.
    pub(crate) fn is_reply(&self, env: &Envelope) -> bool {
        self.reply.is_some() && env.in_reply == self.reply
    }

    pub(crate) fn matches(&self, env: &Envelope) -> bool {
        self.any || self.is_reply(env) || self.tags.contains(&env.msg.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(tag: Tag, in_reply: Option<u64>) -> Envelope {
        Envelope {
            from: None,
            msg: Message::signal(tag),
            constraint: None,
            reply_to: None,
            in_reply: in_reply.map(ReplyToken),
            seq: 0,
        }
    }

    #[test]
    fn message_body_round_trip() {
        let m = Message::new(Tag(7), String::from("payload"));
        assert_eq!(m.tag(), Tag(7));
        assert_eq!(m.body_ref::<String>().unwrap(), "payload");
        assert!(m.body_ref::<u32>().is_none());
        let s = m.into_body::<String>().unwrap();
        assert_eq!(s, "payload");
    }

    #[test]
    fn into_body_returns_message_on_type_mismatch() {
        let m = Message::new(Tag(1), 3u32);
        let m = m.into_body::<String>().unwrap_err();
        assert_eq!(m.tag(), Tag(1));
        assert_eq!(m.into_body::<u32>().unwrap(), 3);
    }

    #[test]
    fn match_spec_any_and_tags() {
        assert!(MatchSpec::Any.matches(&env(Tag(1), None)));
        let spec = MatchSpec::Tags(vec![Tag(1), Tag(2)]);
        assert!(spec.matches(&env(Tag(2), None)));
        assert!(!spec.matches(&env(Tag(3), None)));
    }

    #[test]
    fn match_spec_reply_routing() {
        let spec = MatchSpec::Reply(9);
        assert!(spec.matches(&env(Tag(0), Some(9))));
        assert!(!spec.matches(&env(Tag(0), Some(8))));
        assert!(!spec.matches(&env(Tag(0), None)));

        let both = MatchSpec::ReplyOrTags(9, vec![Tag(5)]);
        assert!(both.matches(&env(Tag(5), None)));
        assert!(both.matches(&env(Tag(0), Some(9))));
        assert!(!both.matches(&env(Tag(4), Some(8))));
    }

    #[test]
    #[should_panic(expected = "does not carry")]
    fn expect_body_panics_on_mismatch() {
        let e = env(Tag(1), None);
        let _: u32 = e.expect_body::<u32>();
    }
}
