//! Messages, envelopes, and mailbox match specifications.
//!
//! All inter-thread communication is carried by [`Message`]s wrapped in
//! [`Envelope`]s. An envelope records the sender, an optional scheduling
//! [`Constraint`], and — for synchronous sends — a reply token that routes
//! the answer back to the waiting thread. Network packets, timer
//! expirations, and OS signals are mapped to messages by the platform, so a
//! code function sees a single uniform event interface.

use crate::clock::Time;
use crate::constraint::{Constraint, Priority};
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

    /// Creates a message around a body that is already boxed, such as one
    /// taken out of an earlier message with [`Message::take_boxed_body`]:
    /// a round trip that hands the same box back and forth allocates
    /// nothing.
    #[must_use]
    pub fn from_body(tag: Tag, body: Body) -> Self {
        Message { tag, body }
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

    /// Moves the boxed body out of the message, whatever its type, leaving
    /// `()` in its place (which allocates nothing), so the box can be
    /// refilled and sent again with [`Message::from_body`].
    pub fn take_boxed_body(&mut self) -> Body {
        std::mem::replace(&mut self.body, Box::new(()))
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message").field("tag", &self.tag).finish()
    }
}

/// The number of a pending synchronous send: its request carries it, and
/// so does the reply that answers it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ReplyToken(pub(crate) u64);

/// What an envelope's token word means.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Route {
    /// No token: an asynchronous send.
    Plain,
    /// A synchronous request: the reply carries the token back to `from`.
    Request,
    /// The reply to the request with the token.
    Reply,
}

/// A message in flight, together with its routing metadata.
///
/// 56 bytes: the [`Message`] (24) and one word each for the sender, the
/// reply token and the constraint's deadline, then the constraint's
/// priority and four one-byte fields that say which of them are set and
/// what the token means. A hand-off moves an envelope through the kernel
/// twice, so its size is part of the cost of a switch
/// (`docs/threading.md`, "What a hand-off carries").
pub struct Envelope {
    pub(crate) msg: Message,
    /// The sender, if `has_from`.
    from: ThreadId,
    /// A request's or a reply's token, as `route` says.
    token: u64,
    /// The constraint's deadline, if `has_deadline`.
    deadline: Time,
    /// The constraint's priority, if `has_constraint`.
    priority: Priority,
    route: Route,
    has_from: bool,
    has_constraint: bool,
    has_deadline: bool,
}

impl Envelope {
    /// An asynchronous send's envelope.
    pub(crate) fn new(
        from: Option<ThreadId>,
        msg: Message,
        constraint: Option<Constraint>,
    ) -> Envelope {
        let deadline = constraint.and_then(|c| c.deadline);
        Envelope {
            msg,
            from: from.unwrap_or(ThreadId(0)),
            token: 0,
            deadline: deadline.unwrap_or(Time::ZERO),
            priority: constraint.map_or(Priority::NORMAL, |c| c.priority),
            route: Route::Plain,
            has_from: from.is_some(),
            has_constraint: constraint.is_some(),
            has_deadline: deadline.is_some(),
        }
    }

    /// This envelope as the synchronous request `token`.
    pub(crate) fn into_request(self, token: ReplyToken) -> Envelope {
        self.routed(Route::Request, token)
    }

    /// This envelope as the reply to the request `token`.
    pub(crate) fn into_reply(self, token: ReplyToken) -> Envelope {
        self.routed(Route::Reply, token)
    }

    fn routed(self, route: Route, token: ReplyToken) -> Envelope {
        Envelope {
            route,
            token: token.0,
            ..self
        }
    }

    /// The token the reply to this request must carry; `None` unless this
    /// is a synchronous request.
    pub(crate) fn reply_to(&self) -> Option<ReplyToken> {
        (self.route == Route::Request).then_some(ReplyToken(self.token))
    }

    /// Whether this is the reply to the request `token`.
    pub(crate) fn is_reply_to(&self, token: ReplyToken) -> bool {
        self.route == Route::Reply && self.token == token.0
    }

    /// The sending thread or [`ExternalPort`](crate::ExternalPort); `None`
    /// for a message a timer delivers.
    #[must_use]
    pub fn from(&self) -> Option<ThreadId> {
        self.has_from.then_some(self.from)
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
        self.has_constraint.then(|| Constraint {
            priority: self.priority,
            deadline: self.has_deadline.then_some(self.deadline),
        })
    }

    /// Whether the sender is blocked waiting for a reply to this envelope.
    #[must_use]
    pub fn wants_reply(&self) -> bool {
        self.route == Route::Request
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
            .field("from", &self.from())
            .field("tag", &self.msg.tag())
            .field("constraint", &self.constraint())
            .field("route", &self.route)
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
        self.reply.is_some_and(|token| env.is_reply_to(token))
    }

    pub(crate) fn matches(&self, env: &Envelope) -> bool {
        self.any || self.is_reply(env) || self.tags.contains(&env.msg.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(tag: Tag, in_reply: Option<u64>) -> Envelope {
        let env = Envelope::new(None, Message::signal(tag), None);
        match in_reply {
            Some(token) => env.into_reply(ReplyToken(token)),
            None => env,
        }
    }

    #[test]
    fn message_body_round_trip() {
        let m = Message::new(Tag(7), String::from("payload"));
        assert_eq!(m.tag(), Tag(7));
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

    /// Every combination of sender, constraint and route reads back as it
    /// went in, at the edge values of each field; a reply never wants one.
    #[test]
    fn compact_envelope_round_trips_every_field() {
        let senders = [None, Some(ThreadId(0)), Some(ThreadId(u64::MAX))];
        let mut constraints = vec![None];
        for priority in [Priority(i32::MIN), Priority::NORMAL, Priority(i32::MAX)] {
            for deadline in [None, Some(Time::ZERO), Some(Time::MAX)] {
                constraints.push(Some(Constraint { priority, deadline }));
            }
        }
        for from in senders {
            for &constraint in &constraints {
                for token in [0, u64::MAX - 1].map(ReplyToken) {
                    let make = || Envelope::new(from, Message::signal(Tag(u32::MAX)), constraint);
                    let (plain, request, reply) =
                        (make(), make().into_request(token), make().into_reply(token));
                    for env in [&plain, &request, &reply] {
                        assert_eq!(env.from(), from);
                        assert_eq!(env.constraint(), constraint);
                        assert_eq!(env.tag(), Tag(u32::MAX));
                    }
                    assert!(!plain.wants_reply());
                    assert_eq!(plain.reply_to(), None);
                    assert!(!plain.is_reply_to(token));
                    assert!(request.wants_reply());
                    assert_eq!(request.reply_to(), Some(token));
                    assert!(!request.is_reply_to(token));
                    assert!(!reply.wants_reply());
                    assert_eq!(reply.reply_to(), None);
                    assert!(reply.is_reply_to(token));
                    assert!(!reply.is_reply_to(ReplyToken(token.0 ^ 1)));
                }
            }
        }
    }

    /// A cancelled wait discards the reply to its own token and nothing
    /// else: not the reply to another token, and not a request that
    /// carries the same number.
    #[test]
    fn cancel_wait_discards_exactly_its_own_reply() {
        use crate::sched::KState;
        use crate::thread::ThreadRec;
        let mut state = KState::new();
        let me = state.add_thread(ThreadRec::new("me".into(), Priority::NORMAL, false));
        let peer = state.add_thread(ThreadRec::new("peer".into(), Priority::NORMAL, false));
        for token in [0, u64::MAX - 1].map(ReplyToken) {
            let other = ReplyToken(token.0 ^ 1);
            let signal = |tag| Envelope::new(Some(peer), Message::signal(Tag(tag)), None);
            let mailbox = &mut state.rec_mut(me).unwrap().mailbox;
            mailbox.extend([
                signal(1).into_reply(token),
                signal(2).into_reply(other),
                signal(3).into_request(token),
                signal(4),
            ]);
            state.cancel_wait(me, peer, token.0);
            let mailbox = &mut state.rec_mut(me).unwrap().mailbox;
            let left: Vec<Tag> = mailbox.drain(..).map(|env| env.tag()).collect();
            assert_eq!(left, [Tag(2), Tag(3), Tag(4)]);
        }
    }

    #[test]
    #[should_panic(expected = "does not carry")]
    fn expect_body_panics_on_mismatch() {
        let e = env(Tag(1), None);
        let _: u32 = e.expect_body::<u32>();
    }
}
