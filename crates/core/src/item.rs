//! Information items: the type-erased data units flowing through a
//! pipeline.

use crate::payload::PayloadBytes;
use mbthread::Time;
use std::any::Any;
use std::fmt;

/// Metadata travelling with every item.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Meta {
    /// Sequence number assigned by the producer.
    pub seq: u64,
    /// Kernel timestamp of when the item entered the pipeline.
    pub ts: Time,
}

type Cloner = fn(&(dyn Any + Send)) -> Option<Box<dyn Any + Send>>;

/// The payload representations. The shapes the hot paths carry — a
/// [`PayloadBytes`] handle and a `u64` word — are stored inline, so
/// creating or duplicating one allocates nothing (a bytes duplicate is a
/// refcount bump, which is what makes multicast tees zero-copy). Every
/// other type is boxed as `Any`, with the cloner [`Item::cloneable`]
/// supplies, or none when the item was made with [`Item::new`].
enum Payload {
    Any(Box<dyn Any + Send>, Option<Cloner>),
    Bytes(PayloadBytes),
    Word(u64),
}

impl Payload {
    fn as_any(&self) -> &dyn Any {
        match self {
            Payload::Any(b, _) => &**b,
            Payload::Bytes(p) => p,
            Payload::Word(w) => w,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            Payload::Any(b, _) => &mut **b,
            Payload::Bytes(p) => p,
            Payload::Word(w) => w,
        }
    }
}

/// Moves `v` out as a `T` if it is one, without boxing it.
fn cast<V: Any, T: Any>(v: V) -> Result<T, V> {
    let mut slot = Some(v);
    if let Some(t) = (&mut slot as &mut dyn Any).downcast_mut::<Option<T>>() {
        return Ok(t.take().expect("slot holds the value"));
    }
    Err(slot.expect("slot holds the value"))
}

/// A single unit of information flowing through an Infopipe: a type-erased
/// payload plus [`Meta`].
///
/// The engine is dynamically typed: connections are checked at composition
/// time against [`Typespec`](typespec::Typespec) item types (which carry
/// `TypeId`s), so a well-typed pipeline never sees a failing downcast.
///
/// Items created with [`Item::cloneable`] can be duplicated by multicast
/// tees; items created with [`Item::new`] cannot. Items created with
/// [`Item::bytes`] carry a shared byte buffer and are always duplicable
/// — the duplicate shares the allocation (zero-copy).
///
/// Two shapes are held inline rather than boxed: a [`PayloadBytes`]
/// handle (from [`Item::bytes`], or [`Item::cloneable`] given one) and a
/// `u64` (from [`Item::cloneable`]). Making, converting or duplicating
/// such an item allocates nothing. The typed accessors ([`Item::is`],
/// [`Item::payload_ref`], [`Item::into_payload`], …) treat an inline
/// payload exactly like a boxed one of the same type, so stages need not
/// know which representation they received.
pub struct Item {
    payload: Payload,
    /// Metadata travelling with the payload.
    pub meta: Meta,
}

impl Item {
    /// Wraps a payload that need not be cloneable.
    #[must_use]
    pub fn new<T: Any + Send>(payload: T) -> Item {
        Item {
            payload: Payload::Any(Box::new(payload), None),
            meta: Meta::default(),
        }
    }

    /// Wraps a cloneable payload, enabling multicast tees to duplicate the
    /// item. A `u64` or a [`PayloadBytes`] is held inline, without a box.
    #[must_use]
    pub fn cloneable<T: Any + Send + Clone>(payload: T) -> Item {
        fn clone_impl<T: Any + Send + Clone>(p: &(dyn Any + Send)) -> Option<Box<dyn Any + Send>> {
            p.downcast_ref::<T>()
                .map(|v| Box::new(v.clone()) as Box<dyn Any + Send>)
        }
        let payload = match cast::<T, u64>(payload) {
            Ok(w) => Payload::Word(w),
            Err(payload) => match cast::<T, PayloadBytes>(payload) {
                Ok(p) => Payload::Bytes(p),
                Err(payload) => Payload::Any(Box::new(payload), Some(clone_impl::<T>)),
            },
        };
        Item {
            payload,
            meta: Meta::default(),
        }
    }

    /// Wraps a shared byte buffer on the zero-copy fast path: no box
    /// allocation, and [`Item::try_clone`] shares the buffer instead of
    /// copying it.
    #[must_use]
    pub fn bytes(payload: impl Into<PayloadBytes>) -> Item {
        Item {
            payload: Payload::Bytes(payload.into()),
            meta: Meta::default(),
        }
    }

    /// Sets the sequence number, builder style.
    #[must_use]
    pub fn with_seq(mut self, seq: u64) -> Item {
        self.meta.seq = seq;
        self
    }

    /// Sets the timestamp, builder style.
    #[must_use]
    pub fn with_ts(mut self, ts: Time) -> Item {
        self.meta.ts = ts;
        self
    }

    /// Whether the payload is a `T`.
    #[must_use]
    pub fn is<T: Any>(&self) -> bool {
        self.payload.as_any().is::<T>()
    }

    /// Borrows the payload as `T`.
    #[must_use]
    pub fn payload_ref<T: Any>(&self) -> Option<&T> {
        self.payload.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the payload as `T`.
    ///
    /// Note that a bytes item ([`Item::bytes`]) hands out `&mut
    /// PayloadBytes` — the *handle* is mutable (it can be re-pointed or
    /// sliced), but the shared bytes behind it remain immutable.
    #[must_use]
    pub fn payload_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.payload.as_any_mut().downcast_mut::<T>()
    }

    /// Borrows the payload as a shared byte buffer, if it is one.
    #[must_use]
    pub fn as_payload_bytes(&self) -> Option<&PayloadBytes> {
        self.payload_ref()
    }

    /// Consumes the item, extracting the payload.
    ///
    /// # Errors
    ///
    /// Returns the item unchanged if the payload is not a `T`.
    pub fn into_payload<T: Any>(self) -> Result<(T, Meta), Item> {
        let meta = self.meta;
        // An inline payload moves out without boxing: this runs per item
        // on the data path, so no allocation is allowed here.
        let payload = match self.payload {
            Payload::Any(b, cloner) => match b.downcast::<T>() {
                Ok(v) => return Ok((*v, meta)),
                Err(b) => Payload::Any(b, cloner),
            },
            Payload::Bytes(p) => match cast(p) {
                Ok(v) => return Ok((v, meta)),
                Err(p) => Payload::Bytes(p),
            },
            Payload::Word(w) => match cast(w) {
                Ok(v) => return Ok((v, meta)),
                Err(w) => Payload::Word(w),
            },
        };
        Err(Item { payload, meta })
    }

    /// Consumes the item, extracting the payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T` — use [`Item::into_payload`] for
    /// a fallible extraction. In a type-checked pipeline this indicates a
    /// component lied in its Typespec.
    #[must_use]
    #[track_caller]
    pub fn expect<T: Any>(self) -> T {
        match self.into_payload::<T>() {
            Ok((v, _)) => v,
            Err(_) => panic!(
                "item payload is not a {}; a component's Typespec is wrong",
                std::any::type_name::<T>()
            ),
        }
    }

    /// Whether this item supports duplication.
    #[must_use]
    pub(crate) fn is_cloneable(&self) -> bool {
        !matches!(self.payload, Payload::Any(_, None))
    }

    /// Duplicates the item (payload, meta, and cloneability); `None` if the
    /// payload was wrapped with [`Item::new`]. Bytes items duplicate by
    /// refcount — the copies share one allocation.
    #[must_use]
    pub fn try_clone(&self) -> Option<Item> {
        let payload = match &self.payload {
            Payload::Any(b, cloner) => Payload::Any((*cloner)?(&**b)?, *cloner),
            Payload::Bytes(p) => Payload::Bytes(p.clone()),
            Payload::Word(w) => Payload::Word(*w),
        };
        Some(Item {
            payload,
            meta: self.meta,
        })
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Item")
            .field("seq", &self.meta.seq)
            .field("ts", &self.meta.ts)
            .field("cloneable", &self.is_cloneable())
            .field("bytes", &matches!(self.payload, Payload::Bytes(_)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trip() {
        let mut item = Item::new(vec![1u8, 2, 3]).with_seq(7);
        assert!(item.is::<Vec<u8>>());
        assert_eq!(item.payload_ref::<Vec<u8>>().unwrap().len(), 3);
        item.payload_mut::<Vec<u8>>().unwrap().push(4);
        let (v, meta) = item.into_payload::<Vec<u8>>().unwrap();
        assert_eq!(v, vec![1, 2, 3, 4]);
        assert_eq!(meta.seq, 7);
    }

    #[test]
    fn into_payload_recovers_on_mismatch() {
        let item = Item::new(5u32).with_seq(9);
        let item = item.into_payload::<String>().unwrap_err();
        assert_eq!(item.meta.seq, 9);
        assert_eq!(item.expect::<u32>(), 5);
    }

    #[test]
    fn cloneable_items_duplicate_with_meta() {
        let item = Item::cloneable(String::from("x"))
            .with_seq(3)
            .with_ts(Time::from_millis(2));
        assert!(item.is_cloneable());
        let dup = item.try_clone().unwrap();
        assert_eq!(dup.meta, item.meta);
        assert_eq!(dup.expect::<String>(), "x");
        // The duplicate is itself cloneable.
        let item2 = Item::cloneable(1u8);
        let dup2 = item2.try_clone().unwrap();
        assert!(dup2.is_cloneable());
    }

    #[test]
    fn plain_items_refuse_to_clone() {
        let item = Item::new(5u32);
        assert!(!item.is_cloneable());
        assert!(item.try_clone().is_none());
        // A word made with `new` stays boxed and not duplicable.
        let word = Item::new(5u64);
        assert!(matches!(word.payload, Payload::Any(_, None)));
        assert!(!word.is_cloneable());
        assert!(word.try_clone().is_none());
        assert_eq!(word.expect::<u64>(), 5);
    }

    #[test]
    fn cloneable_words_are_inline() {
        let mut item = Item::cloneable(7u64).with_seq(2);
        assert!(matches!(item.payload, Payload::Word(7)), "no box");
        assert!(item.is::<u64>());
        assert!(!item.is::<u32>());
        assert_eq!(item.payload_ref::<u64>(), Some(&7));
        assert!(item.payload_ref::<i64>().is_none());
        *item.payload_mut::<u64>().unwrap() += 1;
        assert!(item.payload_mut::<u32>().is_none());
        let dup = item.try_clone().unwrap();
        assert!(matches!(dup.payload, Payload::Word(8)));
        assert_eq!(dup.meta, item.meta);
        let wrong = item.into_payload::<u32>().unwrap_err();
        assert_eq!(wrong.meta.seq, 2, "meta survives the failed extraction");
        assert!(matches!(wrong.payload, Payload::Word(8)));
        assert_eq!(wrong.into_payload::<u64>().unwrap(), (8, dup.meta));
    }

    #[test]
    fn bytes_items_behave_like_typed_payload_bytes() {
        let buf = PayloadBytes::from_vec(vec![1, 2, 3]);
        let item = Item::bytes(buf.clone()).with_seq(4);
        assert!(item.is::<PayloadBytes>());
        assert!(!item.is::<Vec<u8>>());
        assert_eq!(item.payload_ref::<PayloadBytes>().unwrap().len(), 3);
        assert_eq!(item.as_payload_bytes().unwrap().as_ptr(), buf.as_ptr());
        let wrong = item.into_payload::<String>().unwrap_err();
        assert_eq!(wrong.meta.seq, 4, "meta survives the failed extraction");
        let (back, meta) = wrong.into_payload::<PayloadBytes>().unwrap();
        assert_eq!(meta.seq, 4);
        assert_eq!(back.as_ptr(), buf.as_ptr(), "no copy through the item");
    }

    #[test]
    fn bytes_items_clone_by_refcount() {
        let buf = PayloadBytes::from_vec(vec![9; 1024]);
        let item = Item::bytes(buf.clone()).with_seq(1);
        assert!(item.is_cloneable(), "bytes items are always duplicable");
        let dup = item.try_clone().unwrap();
        assert!(dup.is_cloneable());
        assert_eq!(dup.meta, item.meta);
        let d = dup.expect::<PayloadBytes>();
        assert_eq!(d.as_ptr(), buf.as_ptr(), "tee duplication must not copy");
        assert!(d.shares_allocation_with(&buf));
    }

    #[test]
    fn cloneable_payload_bytes_values_also_share() {
        // A PayloadBytes given to `cloneable` takes the inline bytes
        // shape, so it duplicates by refcount like an `Item::bytes`.
        let buf = PayloadBytes::from_vec(vec![5; 16]);
        let mut item = Item::cloneable(buf.clone()).with_seq(6);
        assert!(matches!(item.payload, Payload::Bytes(_)), "no box");
        assert!(item.is::<PayloadBytes>());
        assert!(!item.is::<u64>());
        assert_eq!(item.as_payload_bytes().unwrap().as_ptr(), buf.as_ptr());
        assert_eq!(item.payload_ref::<PayloadBytes>().unwrap().len(), 16);
        assert!(item.payload_ref::<Vec<u8>>().is_none());
        *item.payload_mut::<PayloadBytes>().unwrap() = buf.slice(4..8);
        assert!(item.payload_mut::<u64>().is_none());
        let dup = item.try_clone().unwrap();
        assert_eq!(dup.meta, item.meta);
        assert!(dup.expect::<PayloadBytes>().shares_allocation_with(&buf));
        let wrong = item.into_payload::<u64>().unwrap_err();
        assert_eq!(wrong.meta.seq, 6, "meta survives the failed extraction");
        let (back, meta) = wrong.into_payload::<PayloadBytes>().unwrap();
        assert_eq!((back.len(), meta.seq), (4, 6));
        assert!(back.shares_allocation_with(&buf));
    }

    #[test]
    #[should_panic(expected = "Typespec is wrong")]
    fn expect_panics_with_diagnosis() {
        let _ = Item::new(1u8).expect::<u16>();
    }
}
