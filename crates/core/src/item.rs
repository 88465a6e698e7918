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

/// The two payload representations: the general boxed `Any`, and the
/// first-class [`PayloadBytes`] fast path. Keeping bytes out of the box
/// means creating a bytes item performs no allocation beyond the shared
/// buffer itself, and duplicating one (multicast tees) is a refcount
/// bump rather than a deep clone.
enum Payload {
    Any(Box<dyn Any + Send>),
    Bytes(PayloadBytes),
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
/// — the duplicate shares the allocation (zero-copy). The typed
/// accessors ([`Item::is`], [`Item::payload_ref`], [`Item::into_payload`],
/// …) treat a bytes item exactly like an item holding a `PayloadBytes`
/// value, so stages need not know which representation they received.
pub struct Item {
    payload: Payload,
    cloner: Option<Cloner>,
    /// Metadata travelling with the payload.
    pub meta: Meta,
}

impl Item {
    /// Wraps a payload that need not be cloneable.
    #[must_use]
    pub fn new<T: Any + Send>(payload: T) -> Item {
        Item {
            payload: Payload::Any(Box::new(payload)),
            cloner: None,
            meta: Meta::default(),
        }
    }

    /// Wraps a cloneable payload, enabling multicast tees to duplicate the
    /// item.
    #[must_use]
    pub fn cloneable<T: Any + Send + Clone>(payload: T) -> Item {
        fn clone_impl<T: Any + Send + Clone>(p: &(dyn Any + Send)) -> Option<Box<dyn Any + Send>> {
            p.downcast_ref::<T>()
                .map(|v| Box::new(v.clone()) as Box<dyn Any + Send>)
        }
        Item {
            payload: Payload::Any(Box::new(payload)),
            cloner: Some(clone_impl::<T>),
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
            cloner: None,
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
        match &self.payload {
            Payload::Any(b) => b.as_ref().is::<T>(),
            Payload::Bytes(p) => (p as &dyn Any).is::<T>(),
        }
    }

    /// Borrows the payload as `T`.
    #[must_use]
    pub fn payload_ref<T: Any>(&self) -> Option<&T> {
        match &self.payload {
            Payload::Any(b) => b.as_ref().downcast_ref::<T>(),
            Payload::Bytes(p) => (p as &dyn Any).downcast_ref::<T>(),
        }
    }

    /// Mutably borrows the payload as `T`.
    ///
    /// Note that a bytes item ([`Item::bytes`]) hands out `&mut
    /// PayloadBytes` — the *handle* is mutable (it can be re-pointed or
    /// sliced), but the shared bytes behind it remain immutable.
    #[must_use]
    pub fn payload_mut<T: Any>(&mut self) -> Option<&mut T> {
        match &mut self.payload {
            Payload::Any(b) => b.as_mut().downcast_mut::<T>(),
            Payload::Bytes(p) => (p as &mut dyn Any).downcast_mut::<T>(),
        }
    }

    /// Borrows the payload as a shared byte buffer, if this item is on
    /// the bytes fast path.
    #[must_use]
    pub fn as_payload_bytes(&self) -> Option<&PayloadBytes> {
        match &self.payload {
            Payload::Bytes(p) => Some(p),
            Payload::Any(b) => b.as_ref().downcast_ref::<PayloadBytes>(),
        }
    }

    /// Consumes the item, extracting the payload.
    ///
    /// # Errors
    ///
    /// Returns the item unchanged if the payload is not a `T`.
    pub fn into_payload<T: Any>(self) -> Result<(T, Meta), Item> {
        let meta = self.meta;
        let cloner = self.cloner;
        match self.payload {
            Payload::Any(payload) => match payload.downcast::<T>() {
                Ok(b) => Ok((*b, meta)),
                Err(payload) => Err(Item {
                    payload: Payload::Any(payload),
                    cloner,
                    meta,
                }),
            },
            Payload::Bytes(p) => {
                // Move the buffer out without boxing when `T` is
                // `PayloadBytes` itself (this runs per frame on the data
                // path, so no allocation is allowed here); anything else
                // is a type mismatch.
                let mut slot = Some(p);
                match (&mut slot as &mut dyn Any).downcast_mut::<Option<T>>() {
                    Some(t) => Ok((t.take().expect("slot holds the payload"), meta)),
                    None => Err(Item {
                        payload: Payload::Bytes(slot.take().expect("slot holds the payload")),
                        cloner,
                        meta,
                    }),
                }
            }
        }
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
        matches!(self.payload, Payload::Bytes(_)) || self.cloner.is_some()
    }

    /// Duplicates the item (payload, meta, and cloneability); `None` if the
    /// payload was wrapped with [`Item::new`]. Bytes items duplicate by
    /// refcount — the copies share one allocation.
    #[must_use]
    pub fn try_clone(&self) -> Option<Item> {
        let payload = match &self.payload {
            Payload::Bytes(p) => Payload::Bytes(p.clone()),
            Payload::Any(b) => Payload::Any(self.cloner?(b.as_ref())?),
        };
        Some(Item {
            payload,
            cloner: self.cloner,
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
        // Even without the fast path, a PayloadBytes wrapped via
        // `cloneable` duplicates by refcount because its Clone is shallow.
        let buf = PayloadBytes::from_vec(vec![5; 16]);
        let item = Item::cloneable(buf.clone());
        assert_eq!(item.as_payload_bytes().unwrap().as_ptr(), buf.as_ptr());
        let dup = item.try_clone().unwrap();
        assert_eq!(dup.expect::<PayloadBytes>().as_ptr(), buf.as_ptr());
    }

    #[test]
    #[should_panic(expected = "Typespec is wrong")]
    fn expect_panics_with_diagnosis() {
        let _ = Item::new(1u8).expect::<u16>();
    }
}
