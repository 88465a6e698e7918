//! The [`Typespec`] itself: the bundle of flow properties at one port.

use crate::error::TypeError;
use crate::item_type::ItemType;
use crate::qos::{QosKey, QosMap, QosRange};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

/// Describes an information flow at one port of a pipeline component.
///
/// Specs are built incrementally: sources supply what they can produce,
/// every stage transforms the spec ([`SpecTransform`](crate::SpecTransform))
/// and connections intersect the two sides' requirements
/// ([`Typespec::intersect`]). Properties not mentioned are unconstrained.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Typespec {
    item: ItemType,
    qos: QosMap,
    /// Control events the upstream flow can emit toward this port.
    events_offered: BTreeSet<String>,
    /// Control events a component requires its peers to understand.
    events_required: BTreeSet<String>,
    /// The node this end of the flow lives on; changed only by netpipes.
    location: Option<String>,
    /// Free-form extension properties ("Typespecs are extensible and new
    /// properties can be added as needed", §2.3).
    props: BTreeMap<String, String>,
}

impl Typespec {
    /// An unconstrained spec with the wildcard item type.
    #[must_use]
    pub fn new() -> Typespec {
        Typespec::default()
    }

    /// A spec for flows of Rust type `T`.
    #[must_use]
    pub fn of<T: 'static>() -> Typespec {
        Typespec {
            item: ItemType::of::<T>(),
            ..Typespec::default()
        }
    }

    /// A spec with an explicit item type.
    #[must_use]
    pub fn with_item_type(item: ItemType) -> Typespec {
        Typespec {
            item,
            ..Typespec::default()
        }
    }

    /// The item type of the flow.
    #[must_use]
    pub fn item(&self) -> &ItemType {
        &self.item
    }

    /// Replaces the item type (what transformers do to a spec).
    #[must_use]
    pub fn map_item(mut self, item: ItemType) -> Typespec {
        self.item = item;
        self
    }

    /// Adds or narrows a QoS constraint, builder style.
    #[must_use]
    pub fn with_qos(mut self, key: QosKey, range: QosRange) -> Typespec {
        self.qos.set(key, range);
        self
    }

    /// The QoS range for a dimension, if constrained.
    #[must_use]
    pub fn qos(&self, key: &QosKey) -> Option<QosRange> {
        self.qos.get(key)
    }

    /// All QoS constraints.
    #[must_use]
    pub fn qos_map(&self) -> &QosMap {
        &self.qos
    }

    /// Mutable access to the QoS constraints (for components that update
    /// ranges in place).
    pub fn qos_map_mut(&mut self) -> &mut QosMap {
        &mut self.qos
    }

    /// Declares that the flow can deliver the named control event.
    #[must_use]
    pub fn offering_event(mut self, name: impl Into<String>) -> Typespec {
        self.events_offered.insert(name.into());
        self
    }

    /// Declares that a component requires peers to understand the named
    /// control event (e.g. a resizer needs `window-resize` from the
    /// display).
    #[must_use]
    pub fn requiring_event(mut self, name: impl Into<String>) -> Typespec {
        self.events_required.insert(name.into());
        self
    }

    /// Control events offered by the flow.
    pub fn events_offered(&self) -> impl Iterator<Item = &str> {
        self.events_offered.iter().map(String::as_str)
    }

    /// Control events required of the flow.
    pub fn events_required(&self) -> impl Iterator<Item = &str> {
        self.events_required.iter().map(String::as_str)
    }

    /// Sets the location property (done by netpipes and factories only).
    #[must_use]
    pub fn at_location(mut self, node: impl Into<String>) -> Typespec {
        self.location = Some(node.into());
        self
    }

    /// The node this end of the flow lives on, if known.
    #[must_use]
    pub fn location(&self) -> Option<&str> {
        self.location.as_deref()
    }

    /// Sets a free-form extension property.
    #[must_use]
    pub fn with_prop(mut self, key: impl Into<String>, value: impl Into<String>) -> Typespec {
        self.props.insert(key.into(), value.into());
        self
    }

    /// Reads a free-form extension property.
    #[must_use]
    pub fn prop(&self, key: &str) -> Option<&str> {
        self.props.get(key).map(String::as_str)
    }

    /// Intersects two specs into the most general spec satisfying both.
    ///
    /// Item types must be compatible (the more specific wins); QoS ranges
    /// are intersected dimension-wise; offered events accumulate; required events of either
    /// side must be offered by the union of offers or stay required;
    /// locations must agree when both known.
    ///
    /// # Errors
    ///
    /// Any [`TypeError`] describing the first incompatibility found.
    pub fn intersect(&self, other: &Typespec) -> Result<Typespec, TypeError> {
        let item = self
            .item
            .meet(&other.item)
            .ok_or_else(|| TypeError::ItemMismatch {
                expected: other.item.clone(),
                found: self.item.clone(),
            })?;
        let qos = self.qos.intersect(&other.qos)?;
        let location = match (&self.location, &other.location) {
            (Some(a), Some(b)) if a != b => {
                return Err(TypeError::Rejected(format!(
                    "flow endpoints on different nodes without a netpipe: {a} vs {b}"
                )));
            }
            (a, b) => a.clone().or_else(|| b.clone()),
        };
        let mut props = self.props.clone();
        for (k, v) in &other.props {
            if let Some(mine) = props.get(k) {
                if mine != v {
                    return Err(TypeError::Rejected(format!(
                        "conflicting property '{k}': '{mine}' vs '{v}'"
                    )));
                }
            } else {
                props.insert(k.clone(), v.clone());
            }
        }
        let events_offered: BTreeSet<String> = self
            .events_offered
            .union(&other.events_offered)
            .cloned()
            .collect();
        let events_required: BTreeSet<String> = self
            .events_required
            .union(&other.events_required)
            .cloned()
            .collect();
        Ok(Typespec {
            item,
            qos,
            events_offered,
            events_required,
            location,
            props,
        })
    }

    /// Checks that this spec (an offer) satisfies `requirement`: item types
    /// compatible, every QoS dimension the requirement constrains is met by
    /// a subrange here, and every required event is offered.
    ///
    /// # Errors
    ///
    /// The first [`TypeError`] describing why the offer is insufficient.
    pub fn satisfy(&self, requirement: &Typespec) -> Result<(), TypeError> {
        if !self.item.compatible_with(&requirement.item) {
            return Err(TypeError::ItemMismatch {
                expected: requirement.item.clone(),
                found: self.item.clone(),
            });
        }
        if !self.qos.satisfies(&requirement.qos) {
            // Find the offending dimension for a useful error message.
            for (key, want) in requirement.qos.iter() {
                match self.qos.get(key) {
                    Some(have) if have.is_subrange_of(want) => {}
                    Some(have) => {
                        return Err(TypeError::QosDisjoint {
                            key: key.clone(),
                            left: have,
                            right: *want,
                        });
                    }
                    None => {
                        return Err(TypeError::Rejected(format!(
                            "required QoS dimension {key} is unspecified"
                        )));
                    }
                }
            }
        }
        for ev in &requirement.events_required {
            if !self.events_offered.contains(ev) {
                return Err(TypeError::MissingEvent(ev.clone()));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Typespec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow<{}>", self.item)?;
        if let Some(loc) = &self.location {
            write!(f, "@{loc}")?;
        }
        for (key, range) in self.qos.iter() {
            write!(f, " {key}={range}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_narrows_qos_and_keeps_specific_item() {
        let a = Typespec::new().with_qos(QosKey::FrameRateHz, QosRange::new(10.0, 60.0));
        let b = Typespec::of::<u32>().with_qos(QosKey::FrameRateHz, QosRange::at_most(24.0));
        let m = a.intersect(&b).unwrap();
        assert_eq!(m.item(), &ItemType::of::<u32>());
        assert_eq!(m.qos(&QosKey::FrameRateHz), Some(QosRange::new(10.0, 24.0)));
    }

    #[test]
    fn intersect_rejects_item_mismatch() {
        let a = Typespec::of::<u32>();
        let b = Typespec::of::<String>();
        assert!(matches!(
            a.intersect(&b),
            Err(TypeError::ItemMismatch { .. })
        ));
    }

    #[test]
    fn intersect_rejects_cross_node_flows() {
        let a = Typespec::new().at_location("producer");
        let b = Typespec::new().at_location("consumer");
        assert!(a.intersect(&b).is_err());
        let same = Typespec::new().at_location("producer");
        assert_eq!(a.intersect(&same).unwrap().location(), Some("producer"));
    }

    #[test]
    fn satisfy_checks_events() {
        let offer = Typespec::new().offering_event("window-resize");
        let need = Typespec::new().requiring_event("window-resize");
        assert!(offer.satisfy(&need).is_ok());
        let missing = Typespec::new().requiring_event("frame-release");
        assert_eq!(
            offer.satisfy(&missing),
            Err(TypeError::MissingEvent("frame-release".into()))
        );
    }

    #[test]
    fn satisfy_requires_known_subranges() {
        let offer = Typespec::new().with_qos(QosKey::LatencyMs, QosRange::new(5.0, 20.0));
        let need = Typespec::new().with_qos(QosKey::LatencyMs, QosRange::at_most(50.0));
        assert!(offer.satisfy(&need).is_ok());
        let tight = Typespec::new().with_qos(QosKey::LatencyMs, QosRange::at_most(10.0));
        assert!(matches!(
            offer.satisfy(&tight),
            Err(TypeError::QosDisjoint { .. })
        ));
        let unknown = Typespec::new().with_qos(QosKey::JitterMs, QosRange::at_most(1.0));
        assert!(matches!(
            offer.satisfy(&unknown),
            Err(TypeError::Rejected(_))
        ));
    }

    #[test]
    fn props_round_trip_and_conflict() {
        let a = Typespec::new().with_prop("codec", "synthetic-mpeg");
        assert_eq!(a.prop("codec"), Some("synthetic-mpeg"));
        assert_eq!(a.prop("absent"), None);
        let b = Typespec::new().with_prop("codec", "raw");
        assert!(a.intersect(&b).is_err());
        let ok = Typespec::new().with_prop("gop", "12");
        let m = a.intersect(&ok).unwrap();
        assert_eq!(m.prop("codec"), Some("synthetic-mpeg"));
        assert_eq!(m.prop("gop"), Some("12"));
    }

    #[test]
    fn display_mentions_item_and_qos() {
        let s = Typespec::of::<u8>()
            .at_location("n1")
            .with_qos(QosKey::FrameRateHz, QosRange::exactly(30.0));
        let text = s.to_string();
        assert!(text.contains("u8"));
        assert!(text.contains("n1"));
        assert!(text.contains("frame-rate-hz"));
    }
}
