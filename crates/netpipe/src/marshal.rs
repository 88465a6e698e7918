//! Marshalling filters: typed items ↔ raw wire bytes.
//!
//! These are the components on either side of a netpipe that "translate
//! the raw data flow to and from a higher-level information flow" and
//! "encapsulate the QoS mapping of netpipe properties and information flow
//! properties" (§2.4). They are also where the Typespec *location*
//! property changes: a [`Marshal`] stamps the producer node, an
//! [`Unmarshal`] stamps the consumer node. The stamp is ideally the
//! transport's own [`PeerIdentity`](crate::PeerIdentity)
//! ([`Marshal::at_peer`], [`Unmarshal::at_peer`]) rather than a
//! hand-written string, so the location property tracks where the flow
//! actually crossed the network.
//!
//! Neither side copies a payload beyond the marshaller's own sealing
//! step: a [`Marshal`] serializes each item once into one sealed buffer,
//! and an [`Unmarshal`] decodes with that buffer installed as the decode
//! source ([`PayloadBytes::decode_with`]), so the `PayloadBytes` fields
//! of the decoded item — a `media::Packet`'s bytes, say — are views of
//! the frame buffer it arrived in. The view keeps that buffer (a pooled
//! one: checked out of the link's receive pool) alive until the item's
//! payload is dropped or joined into something else.

use crate::transport::PeerIdentity;
use crate::wire;
use infopipes::{BufferPool, Function, Item, ItemType, PayloadBytes, Stage};
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use typespec::{TypeError, Typespec};

/// The raw item type flowing through a netpipe: one marshalled message.
///
/// Since the zero-copy refactor this is [`PayloadBytes`] itself — a
/// shared `Arc`-backed buffer — so the name is kept as an alias for the
/// marshalling vocabulary of §2.4. A [`Marshal`] seals each message into
/// one such buffer; every crossing after that (tees, transports,
/// framing) shares it by refcount.
pub type WireBytes = PayloadBytes;

/// Serializes typed items to [`WireBytes`] (function style).
pub struct Marshal<T> {
    name: String,
    /// The node name stamped into the outgoing location property.
    from_node: Option<String>,
    /// Pool the sealed buffers are drawn from; `None` allocates fresh.
    pool: Option<BufferPool>,
    /// Size hint for the next acquisition: the previous message's
    /// serialized length (streams of similar messages stay in one class).
    last_len: usize,
    _marker: PhantomData<fn(T)>,
}

impl<T: Serialize + Send + 'static> Marshal<T> {
    /// Creates a marshaller.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Marshal<T> {
        Marshal {
            name: name.into(),
            from_node: None,
            pool: None,
            last_len: 0,
            _marker: PhantomData,
        }
    }

    /// Seal outgoing messages into buffers drawn from `pool` instead of
    /// fresh allocations — in steady state the marshal step is then
    /// allocation-free (the pool recycles each buffer when the last
    /// downstream reference drops).
    #[must_use]
    pub fn with_pool(mut self, pool: &BufferPool) -> Marshal<T> {
        self.pool = Some(pool.clone());
        self
    }

    /// Also record the producer-side node name in the flow's location
    /// property.
    #[must_use]
    pub fn at_node(mut self, node: impl Into<String>) -> Marshal<T> {
        self.from_node = Some(node.into());
        self
    }

    /// Records a transport peer identity as the producer-side location
    /// (`scheme://addr`), tying the location property to the link the
    /// flow leaves through.
    #[must_use]
    pub fn at_peer(self, peer: &PeerIdentity) -> Marshal<T> {
        self.at_node(peer.to_string())
    }
}

impl<T: Serialize + Send + 'static> Stage for Marshal<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<T>())
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        let mut out = input.clone().map_item(ItemType::of::<WireBytes>());
        if let Some(node) = &self.from_node {
            out = out.at_location(node.clone());
        }
        Ok(out)
    }
}

impl<T: Serialize + Send + 'static> Function for Marshal<T> {
    fn convert(&mut self, item: Item) -> Option<Item> {
        let meta = item.meta;
        let (value, _) = item.into_payload::<T>().ok()?;
        // Marshal into a single owned buffer and seal it; downstream
        // crossings (tees, transports) share it without copying.
        let bytes = match &self.pool {
            Some(pool) => {
                let hint = self.last_len.max(64);
                let sealed = wire::to_payload_in(pool, hint, &value).ok()?;
                self.last_len = sealed.len();
                sealed
            }
            None => wire::to_payload(&value).ok()?,
        };
        let mut out = Item::bytes(bytes);
        out.meta = meta;
        Some(out)
    }
}

/// A point-in-time snapshot of an [`Unmarshal`] filter's counters (see
/// [`UnmarshalCounters::snapshot`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnmarshalStats {
    /// Messages decoded.
    pub decoded: u64,
    /// Messages dropped because decoding failed (corruption).
    pub errors: u64,
    /// The location stamped into the flow's Typespec as it leaves this
    /// filter — the transport peer identity when configured with
    /// [`Unmarshal::at_peer`], a hand-written node name with
    /// [`Unmarshal::at_node`], `None` when the rewrite is disabled.
    pub location: Option<String>,
}

/// The live counters behind an [`Unmarshal`] filter, shared with
/// observers through [`Unmarshal::stats_handle`].
///
/// The counts are plain atomics so the decode hot loop bumps them
/// lock-free and an inspector sampling mid-stream never contends it
/// (the location label, written once at configuration time, keeps a
/// mutex nobody touches per message).
#[derive(Debug, Default)]
pub struct UnmarshalCounters {
    decoded: AtomicU64,
    errors: AtomicU64,
    location: Mutex<Option<String>>,
}

impl UnmarshalCounters {
    /// Messages decoded so far.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    /// Messages dropped because decoding failed.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The configured location stamp, if any.
    #[must_use]
    pub fn location(&self) -> Option<String> {
        self.location.lock().clone()
    }

    /// A consistent snapshot of all counters.
    #[must_use]
    pub fn snapshot(&self) -> UnmarshalStats {
        UnmarshalStats {
            decoded: self.decoded(),
            errors: self.errors(),
            location: self.location(),
        }
    }
}

/// Deserializes [`WireBytes`] back to typed items (function style).
/// Undecodable messages are dropped and counted, never propagated.
pub struct Unmarshal<T> {
    name: String,
    to_node: Option<String>,
    stats: Arc<UnmarshalCounters>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: DeserializeOwned + Clone + Send + 'static> Unmarshal<T> {
    /// Creates an unmarshaller.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Unmarshal<T> {
        Unmarshal {
            name: name.into(),
            to_node: None,
            stats: Arc::new(UnmarshalCounters::default()),
            _marker: PhantomData,
        }
    }

    /// Also record the consumer-side node name in the flow's location
    /// property.
    #[must_use]
    pub fn at_node(mut self, node: impl Into<String>) -> Unmarshal<T> {
        self.to_node = Some(node.into());
        *self.stats.location.lock() = self.to_node.clone();
        self
    }

    /// Records a transport peer identity as the consumer-side location
    /// (`scheme://addr`): the flow is stamped with the link it actually
    /// arrived over, instead of a hard-coded string.
    #[must_use]
    pub fn at_peer(self, peer: &PeerIdentity) -> Unmarshal<T> {
        self.at_node(peer.to_string())
    }

    /// A handle on the decode counters, sampled lock-free (see
    /// [`UnmarshalCounters::snapshot`]).
    #[must_use]
    pub fn stats_handle(&self) -> Arc<UnmarshalCounters> {
        Arc::clone(&self.stats)
    }
}

impl<T: DeserializeOwned + Clone + Send + 'static> Stage for Unmarshal<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<WireBytes>())
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        // Crossing the netpipe: the location changes, so start from a
        // location-free copy and stamp the consumer node.
        let mut out = Typespec::with_item_type(ItemType::of::<T>());
        for (k, r) in input.qos_map().iter() {
            out.qos_map_mut().set(k.clone(), *r);
        }
        if let Some(node) = &self.to_node {
            out = out.at_location(node.clone());
        }
        Ok(out)
    }
}

impl<T: DeserializeOwned + Clone + Send + 'static> Function for Unmarshal<T> {
    fn convert(&mut self, item: Item) -> Option<Item> {
        let meta = item.meta;
        let (bytes, _) = item.into_payload::<WireBytes>().ok()?;
        // Decode with the frame buffer as the decode source: payload
        // fields of `T` come back as views of it, so no copy of the
        // payload is made on the receive path.
        match bytes.decode_with(wire::from_bytes::<T>) {
            Ok(value) => {
                self.stats.decoded.fetch_add(1, Ordering::Relaxed);
                let mut out = Item::cloneable(value);
                out.meta = meta;
                Some(out)
            }
            Err(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marshal_unmarshal_round_trips_items() {
        let mut m = Marshal::<media::MidiEvent>::new("m");
        let mut u = Unmarshal::<media::MidiEvent>::new("u");
        let ev = media::MidiEvent {
            channel: 3,
            note: 64,
            velocity: 100,
            at_us: 42,
        };
        let wire_item = m.convert(Item::cloneable(ev).with_seq(9)).unwrap();
        assert!(wire_item.is::<WireBytes>());
        assert_eq!(wire_item.meta.seq, 9);
        let back = u.convert(wire_item).unwrap();
        assert_eq!(back.meta.seq, 9);
        assert_eq!(back.expect::<media::MidiEvent>(), ev);
    }

    #[test]
    fn unmarshal_counts_corrupt_messages() {
        let u = Unmarshal::<media::MidiEvent>::new("u");
        let stats = u.stats_handle();
        let mut u = u;
        let garbage = Item::bytes(WireBytes::from(vec![1, 2, 3]));
        assert!(u.convert(garbage).is_none());
        assert_eq!(stats.errors(), 1);
        assert_eq!(stats.decoded(), 0);
        assert_eq!(
            stats.snapshot(),
            UnmarshalStats {
                decoded: 0,
                errors: 1,
                location: None
            }
        );
    }

    #[test]
    fn specs_cross_the_location_boundary() {
        use typespec::{QosKey, QosRange};
        let m = Marshal::<media::MidiEvent>::new("m").at_node("producer");
        let u = Unmarshal::<media::MidiEvent>::new("u").at_node("consumer");

        let flow = Typespec::of::<media::MidiEvent>()
            .with_qos(QosKey::FrameRateHz, QosRange::exactly(30.0));
        let on_wire = m.transform_spec(&flow).unwrap();
        assert_eq!(on_wire.location(), Some("producer"));
        assert!(on_wire.item().compatible_with(&ItemType::of::<WireBytes>()));

        let delivered = u.transform_spec(&on_wire).unwrap();
        assert_eq!(delivered.location(), Some("consumer"));
        assert!(delivered
            .item()
            .compatible_with(&ItemType::of::<media::MidiEvent>()));
        // QoS hints survive the crossing.
        assert_eq!(
            delivered.qos(&QosKey::FrameRateHz),
            Some(QosRange::exactly(30.0))
        );
    }

    #[test]
    fn peer_identity_drives_the_location_rewrite() {
        use crate::transport::PeerIdentity;
        let peer = PeerIdentity::new("tcp", "10.1.2.3:9000");
        let m = Marshal::<u32>::new("m").at_peer(&peer);
        let u = Unmarshal::<u32>::new("u").at_peer(&peer);

        let on_wire = m.transform_spec(&Typespec::of::<u32>()).unwrap();
        assert_eq!(on_wire.location(), Some("tcp://10.1.2.3:9000"));
        let delivered = u.transform_spec(&on_wire).unwrap();
        assert_eq!(delivered.location(), Some("tcp://10.1.2.3:9000"));

        // The stamped location is surfaced in the stats probe.
        assert_eq!(
            u.stats_handle().location().as_deref(),
            Some("tcp://10.1.2.3:9000")
        );
        assert_eq!(
            Unmarshal::<u32>::new("plain").stats_handle().location(),
            None
        );
    }

    #[test]
    fn wire_bytes_basics() {
        let w = WireBytes::from(vec![1, 2]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert!(WireBytes::new().is_empty());
    }

    #[test]
    fn pooled_marshal_recycles_buffers() {
        let pool = BufferPool::new();
        let mut m = Marshal::<u32>::new("m").with_pool(&pool);

        let first = m.convert(Item::cloneable(7u32)).unwrap();
        let bytes = first.as_payload_bytes().unwrap().clone();
        assert!(bytes.is_pooled());
        drop(first);
        drop(bytes);

        // The second marshal reuses the recycled buffer: a pool hit.
        let second = m.convert(Item::cloneable(9u32)).unwrap();
        assert!(second.as_payload_bytes().unwrap().is_pooled());
        assert!(pool.stats().hits >= 1, "expected a recycled-buffer hit");
    }

    /// The receive-path claim: an unmarshalled packet's payload is a view
    /// of the wire buffer it arrived in, at the payload's offset — for a
    /// heap-sealed and for a pooled wire buffer alike.
    #[test]
    fn unmarshalled_payloads_are_views_of_the_wire_buffer() {
        let pool = BufferPool::new();
        let pkt = media::Packet {
            frame_seq: 3,
            index: 1,
            count: 4,
            ftype: media::FrameType::P,
            pts_us: 99,
            bytes: WireBytes::from_vec((0..=255).collect()),
        };
        for mut m in [
            Marshal::<media::Packet>::new("m"),
            Marshal::<media::Packet>::new("m").with_pool(&pool),
        ] {
            let wire_item = m.convert(Item::cloneable(pkt.clone())).unwrap();
            let on_wire = wire_item.as_payload_bytes().unwrap().clone();
            let mut u = Unmarshal::<media::Packet>::new("u");
            let back = u.convert(wire_item).unwrap().expect::<media::Packet>();
            assert_eq!(back, pkt);
            assert!(
                back.bytes.shares_allocation_with(&on_wire),
                "the payload must alias the wire buffer, not a copy of it"
            );
            // Five fixed-width fields and the length prefix lead it.
            let header = on_wire.len() - pkt.bytes.len();
            assert_eq!(header, 8 + 4 + 4 + 4 + 8 + 4);
            assert_eq!(back.bytes.as_ptr(), on_wire.slice(header..).as_ptr());
            // The view alone keeps a pooled wire buffer checked out.
            let pooled = on_wire.is_pooled();
            drop(on_wire);
            assert_eq!(pool.stats().outstanding, usize::from(pooled));
            drop(back);
            assert_eq!(pool.stats().outstanding, 0);
        }
    }

    #[test]
    fn marshalled_items_ride_the_bytes_fast_path() {
        let mut m = Marshal::<u32>::new("m");
        let wire_item = m.convert(Item::cloneable(7u32).with_seq(1)).unwrap();
        let sent = wire_item.as_payload_bytes().unwrap().clone();
        // A tee-style duplication of the marshalled item shares the
        // sealed buffer instead of copying it.
        let dup = wire_item.try_clone().unwrap();
        assert_eq!(
            dup.as_payload_bytes().unwrap().as_ptr(),
            sent.as_ptr(),
            "duplicating a marshalled item must not copy the payload"
        );
    }
}
