//! `PayloadBytes`: the shared, cheaply-cloneable byte buffer carried on
//! the data path from producer to wire.
//!
//! Every lane crossing in the middleware — multicast tees, marshalling
//! filters, transport queues, fragmenters — used to deep-copy its byte
//! payloads. `PayloadBytes` replaces those copies with reference
//! counting: the buffer is an `Arc<[u8]>`, a clone bumps the refcount,
//! and [`PayloadBytes::slice`] produces a view that *shares the parent
//! allocation* instead of allocating a fragment of its own.
//!
//! # Zero-copy invariants
//!
//! 1. **Sealing is the only copy.** Building a `PayloadBytes` from a
//!    `Vec<u8>` moves the bytes into the shared allocation once
//!    (`From<Vec<u8>>`). After sealing, no middleware layer copies the
//!    bytes again: clones and slices are refcount operations, observable
//!    through pointer identity ([`PayloadBytes::as_ptr`]).
//! 2. **Payloads are immutable.** There is no `&mut [u8]` accessor; a
//!    buffer reachable from two items can never change underneath either
//!    of them. Transports may therefore transmit a frame while the
//!    producer still holds a clone — what the producer sent is what the
//!    wire carries (asserted by the conformance suite's
//!    immutability-after-send property).
//! 3. **Slices keep parents alive, not vice versa.** A slice holds a
//!    refcount on the whole parent allocation; dropping the parent item
//!    does not invalidate fragments. (The flip side — a tiny slice
//!    pinning a large buffer — is the standard shared-buffer trade-off;
//!    [`PayloadBytes::to_vec`] detaches when that matters.)
//! 4. **Decoding out of a buffer is slicing it.** A message decoded
//!    under [`PayloadBytes::decode_with`] gets its `PayloadBytes` fields
//!    as slices of the buffer it arrived in, so invariant 1 holds across
//!    a marshalling boundary too: the receive side of a netpipe copies
//!    a payload only where it must join fragments. Decoded from a plain
//!    `&[u8]`, a field is one counted copy, as there is nothing to share.
//!
//! The equality, ordering, and hashing of `PayloadBytes` follow the
//! *bytes in view*, not the identity of the backing allocation: two
//! buffers with equal contents compare equal even when they do not share
//! memory, and aliasing slices of different ranges compare unequal.

use crate::pool::PooledRef;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide tally of payload deep copies: every
/// [`PayloadBytes::copy_from_slice`] (copy-construction) and
/// [`PayloadBytes::to_vec`] (copy-out) bumps it. Sealing a `Vec`
/// ([`PayloadBytes::from_vec`]) moves the bytes and is *not* counted —
/// it is the one sanctioned sealing step of invariant 1.
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// The number of payload deep copies the process has performed so far.
///
/// Fan-out proofs read this around a broadcast: teeing one sealed buffer
/// to N sessions must leave the count unchanged, because every
/// per-session frame is a refcounted view of the same allocation. (The
/// capacity bench `fanout_report` gates on exactly that delta.)
#[must_use]
pub fn payload_copy_count() -> u64 {
    DEEP_COPIES.load(Ordering::Relaxed)
}

thread_local! {
    /// The buffer this thread is decoding out of, innermost
    /// [`PayloadBytes::decode_with`] scope; see there.
    static DECODE_SOURCE: RefCell<Option<PayloadBytes>> = const { RefCell::new(None) };
}

/// The shared allocation behind a [`PayloadBytes`] view: either a plain
/// heap sealing or a recycled buffer from a
/// [`BufferPool`](crate::BufferPool). Both are immutable while any view
/// is alive; a pooled backing is additionally *reused* once its last
/// view drops (the pool's recycle-on-last-drop contract).
#[derive(Clone)]
enum Backing {
    Shared(Arc<[u8]>),
    Pooled(PooledRef),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Shared(buf) => buf,
            Backing::Pooled(mem) => mem.bytes(),
        }
    }
}

/// A cheaply-cloneable, immutable byte buffer backed by a shared
/// allocation (`Arc<[u8]>`, or a pooled buffer sealed through
/// [`BufferPool`](crate::BufferPool)), with zero-copy slicing.
///
/// See the module docs for the zero-copy invariants. The empty
/// buffer is special-cased to a shared static allocation, so
/// `PayloadBytes::default()` never allocates.
#[derive(Clone)]
pub struct PayloadBytes {
    buf: Backing,
    off: usize,
    len: usize,
}

impl PayloadBytes {
    /// The empty buffer: a view of one process-wide shared allocation,
    /// so constructing it never allocates.
    #[must_use]
    pub fn new() -> PayloadBytes {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        PayloadBytes {
            buf: Backing::Shared(Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..])))),
            off: 0,
            len: 0,
        }
    }

    /// Seals a `Vec` into a shared buffer. This is the single copying
    /// step of the payload path (invariant 1).
    #[must_use]
    pub fn from_vec(v: Vec<u8>) -> PayloadBytes {
        let len = v.len();
        PayloadBytes {
            buf: Backing::Shared(Arc::from(v)),
            off: 0,
            len,
        }
    }

    /// Copies a slice into a fresh shared buffer (counted in
    /// [`payload_copy_count`]).
    #[must_use]
    pub fn copy_from_slice(s: &[u8]) -> PayloadBytes {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        PayloadBytes {
            buf: Backing::Shared(Arc::from(s)),
            off: 0,
            len: s.len(),
        }
    }

    /// Wraps a pool-owned buffer as an immutable view
    /// ([`PoolBuffer::seal`](crate::PoolBuffer::seal)).
    pub(crate) fn pooled(mem: PooledRef, len: usize) -> PayloadBytes {
        PayloadBytes {
            buf: Backing::Pooled(mem),
            off: 0,
            len,
        }
    }

    /// Whether this view is backed by a pool-recycled buffer.
    #[must_use]
    pub fn is_pooled(&self) -> bool {
        matches!(self.buf, Backing::Pooled(_))
    }

    /// Length of the viewed bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.bytes()[self.off..self.off + self.len]
    }

    /// Address of the first viewed byte. Stable across clones and
    /// crossings — pointer equality is how the test suite proves a path
    /// performed zero copies.
    #[must_use]
    pub fn as_ptr(&self) -> *const u8 {
        self.as_slice().as_ptr()
    }

    /// A sub-view sharing this buffer's allocation (no copy). `range` is
    /// relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, mirroring slice
    /// indexing.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> PayloadBytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for PayloadBytes of len {}",
            self.len
        );
        PayloadBytes {
            buf: self.buf.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits the view into consecutive chunks of at most `chunk` bytes,
    /// each sharing this buffer's allocation. An empty view yields one
    /// empty chunk (so framing layers emit a frame even for empty
    /// payloads).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunks_shared(&self, chunk: usize) -> impl Iterator<Item = PayloadBytes> + '_ {
        assert!(chunk > 0, "chunk size must be positive");
        let count = if self.len == 0 {
            1
        } else {
            self.len.div_ceil(chunk)
        };
        (0..count).map(move |i| {
            let start = i * chunk;
            let end = (start + chunk).min(self.len);
            self.slice(start..end)
        })
    }

    /// Whether `self` and `other` are views into the same allocation
    /// (regardless of range). True after any zero-copy crossing.
    #[must_use]
    pub fn shares_allocation_with(&self, other: &PayloadBytes) -> bool {
        match (&self.buf, &other.buf) {
            (Backing::Shared(a), Backing::Shared(b)) => Arc::ptr_eq(a, b),
            (Backing::Pooled(a), Backing::Pooled(b)) => a.ptr_eq(b),
            _ => false,
        }
    }

    /// Number of live references to the backing allocation (the pool
    /// holds none while a pooled buffer is checked out).
    #[must_use]
    pub fn ref_count(&self) -> usize {
        match &self.buf {
            Backing::Shared(buf) => Arc::strong_count(buf),
            Backing::Pooled(mem) => mem.ref_count(),
        }
    }

    /// Runs `decode` over the viewed bytes with this buffer installed as
    /// the calling thread's *decode source*: every `PayloadBytes` that
    /// `decode` deserializes from bytes borrowed out of this buffer comes
    /// back as a [`slice`](PayloadBytes::slice) of it instead of a copy
    /// (see `Deserialize for PayloadBytes`). This is how a received
    /// message's payload fields become views of the frame buffer; the
    /// `serde` visitor interface has no other channel to hand the owning
    /// buffer down to a field.
    ///
    /// Scopes nest — a `decode` that itself decodes a field's bytes with
    /// `decode_with` gets this source back afterwards — and the previous
    /// source is restored on unwind too.
    pub fn decode_with<R>(&self, decode: impl FnOnce(&[u8]) -> R) -> R {
        /// Puts the enclosing scope's source back, however this one ends.
        struct Restore(Option<PayloadBytes>);
        impl Drop for Restore {
            fn drop(&mut self) {
                // `try_with`: a scope unwinding during thread teardown
                // may find the slot already destroyed.
                let _ = DECODE_SOURCE.try_with(|slot| slot.replace(self.0.take()));
            }
        }
        let _restore = Restore(DECODE_SOURCE.with(|slot| slot.replace(Some(self.clone()))));
        decode(self.as_slice())
    }

    /// The decode side of [`decode_with`](PayloadBytes::decode_with):
    /// `bytes` as a view of the installed source when they lie inside it,
    /// as a counted copy otherwise (no source, or bytes from elsewhere).
    fn view_or_copy(bytes: &[u8]) -> PayloadBytes {
        DECODE_SOURCE.with(|slot| {
            if let Some(source) = slot.borrow().as_ref() {
                let (have, want) = (source.as_slice().as_ptr_range(), bytes.as_ptr_range());
                if have.start <= want.start && want.end <= have.end {
                    // Inside the source's memory these *are* the source's
                    // bytes, and they cannot change while a view lives.
                    let at = want.start as usize - have.start as usize;
                    return source.slice(at..at + bytes.len());
                }
            }
            PayloadBytes::copy_from_slice(bytes)
        })
    }

    /// Detaches the viewed bytes into an owned `Vec` (a copy, counted in
    /// [`payload_copy_count`]; use only when leaving the zero-copy path,
    /// e.g. to stop a small slice from pinning a large parent buffer).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        self.as_slice().to_vec()
    }
}

impl Default for PayloadBytes {
    fn default() -> Self {
        PayloadBytes::new()
    }
}

impl Deref for PayloadBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PayloadBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadBytes {
    fn from(v: Vec<u8>) -> PayloadBytes {
        PayloadBytes::from_vec(v)
    }
}

impl From<&[u8]> for PayloadBytes {
    fn from(s: &[u8]) -> PayloadBytes {
        PayloadBytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for PayloadBytes {
    fn from(a: [u8; N]) -> PayloadBytes {
        PayloadBytes::copy_from_slice(&a)
    }
}

impl FromIterator<u8> for PayloadBytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> PayloadBytes {
        PayloadBytes::from_vec(iter.into_iter().collect())
    }
}

impl PartialEq for PayloadBytes {
    fn eq(&self, other: &PayloadBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBytes {}

impl PartialEq<[u8]> for PayloadBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PayloadBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for PayloadBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Serializes as raw bytes — on the netpipe wire codec this is
/// byte-identical to a `Vec<u8>` field (u32 length + raw bytes), so
/// switching a struct's payload field between the two is not a wire
/// format change.
impl serde::Serialize for PayloadBytes {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.as_slice())
    }
}

/// Deserializes from raw bytes: as a zero-copy view when the bytes are
/// borrowed out of the buffer installed by
/// [`PayloadBytes::decode_with`], as one counted copy otherwise.
impl<'de> serde::Deserialize<'de> for PayloadBytes {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;

        impl<'de> serde::de::Visitor<'de> for BytesVisitor {
            type Value = PayloadBytes;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte buffer")
            }

            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<PayloadBytes, E> {
                Ok(PayloadBytes::view_or_copy(v))
            }

            fn visit_byte_buf<E: serde::de::Error>(self, v: Vec<u8>) -> Result<PayloadBytes, E> {
                Ok(PayloadBytes::from_vec(v))
            }

            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<PayloadBytes, A::Error> {
                let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0));
                while let Some(b) = seq.next_element::<u8>()? {
                    out.push(b);
                }
                Ok(PayloadBytes::from_vec(out))
            }
        }

        deserializer.deserialize_byte_buf(BytesVisitor)
    }
}

impl fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PayloadBytes({} B, refs {}, @{:p})",
            self.len,
            self.ref_count(),
            self.as_ptr()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealing_and_views() {
        let p = PayloadBytes::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(p.len(), 5);
        assert_eq!(&p[..], &[1, 2, 3, 4, 5]);
        assert_eq!(p, vec![1u8, 2, 3, 4, 5]);
        assert!(!p.is_empty());
        assert!(PayloadBytes::new().is_empty());
        assert_eq!(PayloadBytes::default().len(), 0);
    }

    #[test]
    fn clones_share_the_allocation() {
        let p = PayloadBytes::from_vec(vec![9; 64]);
        let q = p.clone();
        assert!(p.shares_allocation_with(&q));
        assert_eq!(p.as_ptr(), q.as_ptr());
        assert_eq!(p.ref_count(), 2);
    }

    #[test]
    fn slices_share_and_nest() {
        let p = PayloadBytes::from_vec((0..100).collect());
        let s = p.slice(10..40);
        assert_eq!(s.len(), 30);
        assert_eq!(s[0], 10);
        assert!(s.shares_allocation_with(&p));
        assert_eq!(s.as_ptr(), unsafe { p.as_ptr().add(10) });
        // A slice of a slice is relative to the child view.
        let s2 = s.slice(5..=6);
        assert_eq!(&s2[..], &[15, 16]);
        assert!(s2.shares_allocation_with(&p));
        // Unbounded forms.
        assert_eq!(s.slice(..).len(), 30);
        assert_eq!(s.slice(25..).len(), 5);
        assert_eq!(s.slice(..5).len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = PayloadBytes::from_vec(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn chunks_share_and_cover() {
        let p = PayloadBytes::from_vec((0..10).collect());
        let chunks: Vec<PayloadBytes> = p.chunks_shared(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(&chunks[0][..], &[0, 1, 2, 3]);
        assert_eq!(&chunks[2][..], &[8, 9]);
        assert!(chunks.iter().all(|c| c.shares_allocation_with(&p)));
        // Empty payloads still produce one (empty) chunk.
        let empty: Vec<PayloadBytes> = PayloadBytes::new().chunks_shared(4).collect();
        assert_eq!(empty.len(), 1);
        assert!(empty[0].is_empty());
    }

    #[test]
    fn equality_is_by_content_not_identity() {
        let a = PayloadBytes::from_vec(vec![1, 2, 3]);
        let b = PayloadBytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert!(!a.shares_allocation_with(&b));
        assert_ne!(a, a.slice(0..2));
        assert_eq!(a.slice(0..2), b.slice(0..2));
    }

    #[test]
    fn detaching_copies() {
        let p = PayloadBytes::from_vec(vec![7; 8]);
        let v = p.slice(2..4).to_vec();
        assert_eq!(v, vec![7, 7]);
        assert_ne!(v.as_ptr(), p.slice(2..4).as_ptr());
    }

    #[test]
    fn debug_shows_len_and_refs() {
        let p = PayloadBytes::from_vec(vec![0; 3]);
        let s = format!("{p:?}");
        assert!(s.contains("3 B"), "{s}");
    }
}
