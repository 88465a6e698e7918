//! Property-based tests for the Typespec algebra.

use proptest::prelude::*;
use typespec::{ItemType, Polarity, QosKey, QosMap, QosRange, Typespec};

fn arb_polarity() -> impl Strategy<Value = Polarity> {
    prop_oneof![
        Just(Polarity::Positive),
        Just(Polarity::Negative),
        Just(Polarity::Polymorphic),
    ]
}

fn arb_range() -> impl Strategy<Value = QosRange> {
    (-1e6..1e6f64, 0.0..1e6f64).prop_map(|(lo, width)| QosRange::new(lo, lo + width))
}

fn arb_key() -> impl Strategy<Value = QosKey> {
    prop_oneof![
        Just(QosKey::FrameRateHz),
        Just(QosKey::LatencyMs),
        Just(QosKey::JitterMs),
        Just(QosKey::BandwidthBps),
        "[a-z]{1,8}".prop_map(QosKey::Custom),
    ]
}

/// Whether `inner` lies entirely within `outer`.
fn within(inner: &QosRange, outer: &QosRange) -> bool {
    inner.min() >= outer.min() && inner.max() <= outer.max()
}

fn arb_qos_map() -> impl Strategy<Value = QosMap> {
    proptest::collection::vec((arb_key(), arb_range()), 0..6)
        .prop_map(|entries| entries.into_iter().collect())
}

proptest! {
    /// Connecting any two ports succeeds exactly when they are not both
    /// the same fixed polarity, and unify never produces two ports of the
    /// same fixed polarity.
    #[test]
    fn unify_is_sound(a in arb_polarity(), b in arb_polarity()) {
        let fixed = |p: Polarity| p != Polarity::Polymorphic;
        match a.unify(b) {
            Ok((ra, rb)) => {
                prop_assert!(!(a == b && fixed(a)));
                prop_assert!(
                    !(ra == rb && fixed(ra)),
                    "unify produced {ra} to {rb}"
                );
                // Fixed inputs are never changed by unification.
                if fixed(a) { prop_assert_eq!(ra, a); }
                if fixed(b) { prop_assert_eq!(rb, b); }
            }
            Err(_) => prop_assert!(a == b && fixed(a)),
        }
    }

    /// Whether two ports connect does not depend on the order they are
    /// named in.
    #[test]
    fn connectivity_is_symmetric(a in arb_polarity(), b in arb_polarity()) {
        prop_assert_eq!(a.unify(b).is_ok(), b.unify(a).is_ok());
    }

    /// An induced polarity through a chain of polymorphic filters matches
    /// the imposed direction at every link.
    #[test]
    fn induced_chains_are_uniform(fixed in prop_oneof![
        Just(Polarity::Positive), Just(Polarity::Negative)
    ], len in 0usize..16) {
        let mut out = fixed;
        for _ in 0..len {
            let (_, filter_in) = out.unify(Polarity::Polymorphic).unwrap();
            prop_assert_eq!(filter_in, fixed.complement());
            out = filter_in.complement();
        }
        prop_assert_eq!(out, fixed);
    }

    /// Range intersection is commutative and yields a subrange of both.
    #[test]
    fn range_intersection_laws(a in arb_range(), b in arb_range()) {
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        if let Some(m) = ab {
            prop_assert!(within(&m, &a));
            prop_assert!(within(&m, &b));
        }
        // Self-intersection is identity.
        prop_assert_eq!(a.intersect(&a), Some(a));
    }

    /// Map intersection is commutative, idempotent, and monotone: the
    /// result satisfies both inputs.
    #[test]
    fn qos_map_intersection_laws(a in arb_qos_map(), b in arb_qos_map()) {
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(&x, &y);
                prop_assert!(x.satisfies(&a) || a.iter().any(|(k, _)| x.get(k).is_none()),
                    "result must not widen any input dimension");
                // Every dimension of the result is a subrange of whichever
                // inputs constrain it.
                for (k, r) in x.iter() {
                    if let Some(ra) = a.get(k) { prop_assert!(within(r, &ra)); }
                    if let Some(rb) = b.get(k) { prop_assert!(within(r, &rb)); }
                }
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "asymmetric outcome: {x:?} vs {y:?}"),
        }
        // Idempotence.
        let aa = a.intersect(&a).expect("self-intersection never fails");
        prop_assert_eq!(aa, a);
    }

    /// satisfies() agrees with intersect(): an offer that satisfies a
    /// requirement always intersects with it without narrowing below the
    /// offer.
    #[test]
    fn satisfies_implies_compatible(a in arb_qos_map(), b in arb_qos_map()) {
        if a.satisfies(&b) {
            let m = a.intersect(&b);
            prop_assert!(m.is_ok(), "satisfying maps must intersect");
        }
    }

    /// Typespec intersection keeps item compatibility and is commutative
    /// on the QoS dimension values.
    #[test]
    fn typespec_intersection_laws(qa in arb_qos_map(), qb in arb_qos_map()) {
        let mut a = Typespec::of::<u32>();
        *a.qos_map_mut() = qa;
        let mut b = Typespec::new();
        *b.qos_map_mut() = qb;
        match (a.intersect(&b), b.intersect(&a)) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.qos_map(), y.qos_map());
                prop_assert!(x.item().compatible_with(&ItemType::of::<u32>()));
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "asymmetric outcome: {x:?} vs {y:?}"),
        }
    }
}
