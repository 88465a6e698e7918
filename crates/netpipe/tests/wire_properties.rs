//! Property-based tests: the wire codec round-trips arbitrary values.

use netpipe::wire::{from_bytes, to_payload};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Scalar(i64),
    Pair(u8, String),
    Named { x: f64, items: Vec<u32> },
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Composite {
    tag: Option<String>,
    values: Vec<i32>,
    table: BTreeMap<u16, Vec<u8>>,
    shape: Shape,
    flag: bool,
    tuple: (u64, i8, char),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Unit),
        any::<i64>().prop_map(Shape::Scalar),
        (any::<u8>(), ".*").prop_map(|(a, b)| Shape::Pair(a, b)),
        (
            prop::num::f64::NORMAL | prop::num::f64::ZERO,
            proptest::collection::vec(any::<u32>(), 0..8)
        )
            .prop_map(|(x, items)| Shape::Named { x, items }),
    ]
}

fn arb_composite() -> impl Strategy<Value = Composite> {
    (
        proptest::option::of(".{0,16}"),
        proptest::collection::vec(any::<i32>(), 0..16),
        proptest::collection::btree_map(
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..8),
            0..6,
        ),
        arb_shape(),
        any::<bool>(),
        (any::<u64>(), any::<i8>(), any::<char>()),
    )
        .prop_map(|(tag, values, table, shape, flag, tuple)| Composite {
            tag,
            values,
            table,
            shape,
            flag,
            tuple,
        })
}

proptest! {
    #[test]
    fn composites_round_trip(v in arb_composite()) {
        let bytes = to_payload(&v).expect("serialize");
        let back: Composite = from_bytes(&bytes).expect("deserialize");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn strings_round_trip(s in ".*") {
        let bytes = to_payload(&s).expect("serialize");
        let back: String = from_bytes(&bytes).expect("deserialize");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn byte_vectors_round_trip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
        let bytes = to_payload(&v).expect("serialize");
        let back: Vec<u8> = from_bytes(&bytes).expect("deserialize");
        prop_assert_eq!(back, v);
    }

    /// Truncating any strict prefix of an encoding never panics: it
    /// either errors or (for prefixes that happen to align) decodes
    /// something without reading past the end.
    #[test]
    fn truncation_is_safe(v in arb_composite(), cut in 0usize..64) {
        let bytes = to_payload(&v).expect("serialize");
        if cut < bytes.len() {
            let _ = from_bytes::<Composite>(&bytes[..cut]);
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_is_safe(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<Composite>(&bytes);
        let _ = from_bytes::<Shape>(&bytes);
        let _ = from_bytes::<String>(&bytes);
    }

    /// Media packets (the real wire traffic) round-trip.
    #[test]
    fn packets_round_trip(
        frame_seq in any::<u64>(),
        index in 0u32..64,
        count in 1u32..64,
        pts in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pkt = media::Packet {
            frame_seq,
            index,
            count,
            ftype: media::FrameType::P,
            pts_us: pts,
            bytes: data.into(),
        };
        let bytes = to_payload(&pkt).expect("serialize");
        let back: media::Packet = from_bytes(&bytes).expect("deserialize");
        prop_assert_eq!(back, pkt);
    }

    /// `PayloadBytes` fields are wire-compatible with `Vec<u8>` fields:
    /// the encodings are byte-identical in both directions, including
    /// for slices (only the viewed range is written).
    #[test]
    fn payload_bytes_is_wire_compatible_with_vec(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..64,
    ) {
        use infopipes::PayloadBytes;
        let as_vec = to_payload(&data).expect("vec encode");
        let as_payload = to_payload(&PayloadBytes::from_vec(data.clone())).expect("payload encode");
        prop_assert_eq!(&as_vec, &as_payload);
        let back: PayloadBytes = from_bytes(&as_vec).expect("payload decode");
        prop_assert_eq!(back.as_slice(), data.as_slice());
        // A slice encodes exactly its viewed bytes.
        let start = cut.min(data.len());
        let sliced = PayloadBytes::from_vec(data.clone()).slice(start..);
        let enc = to_payload(&sliced).expect("slice encode");
        let expect = to_payload(&data[start..].to_vec()).expect("tail encode");
        prop_assert_eq!(enc, expect);
    }

    /// Decoded with its buffer installed as the decode source, a
    /// `PayloadBytes` field is a view of that buffer at the field's
    /// offset, whatever surrounds it; decoded from the same bytes as a
    /// plain slice, it is a copy.
    #[test]
    fn payload_fields_decode_as_views_of_the_source(
        lead in ".{0,12}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
        trail in any::<u64>(),
    ) {
        use infopipes::PayloadBytes;
        type Message = (String, PayloadBytes, u64);
        let sent: Message = (lead, PayloadBytes::from_vec(data), trail);
        let wire = to_payload(&sent).expect("serialize");
        let at = 4 + sent.0.len() + 4;

        let viewed: Message = wire.decode_with(from_bytes).expect("decode");
        prop_assert_eq!(&viewed, &sent);
        prop_assert!(viewed.1.shares_allocation_with(&wire));
        prop_assert_eq!(viewed.1.as_ptr(), wire.slice(at..).as_ptr());

        let copied: Message = from_bytes(&wire).expect("decode");
        prop_assert_eq!(&copied, &sent);
        prop_assert!(!copied.1.shares_allocation_with(&wire));
    }
}
