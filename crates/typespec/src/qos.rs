//! QoS parameters: named dimensions with closed ranges of acceptable
//! values.
//!
//! Sources supply achievable ranges, sinks and users restrict them, and
//! intermediate components narrow or shift them. Even without hard
//! guarantees these ranges are "valuable hints to the rest of the
//! pipeline" (§2.3) — the feedback toolkit trades one dimension against
//! another inside them.

use crate::error::TypeError;
use std::collections::BTreeMap;
use std::fmt;

/// A QoS dimension.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosKey {
    /// Video frame rate in Hz.
    FrameRateHz,
    /// Audio sample rate in Hz.
    SampleRateHz,
    /// End-to-end latency in milliseconds.
    LatencyMs,
    /// Inter-item jitter in milliseconds.
    JitterMs,
    /// Throughput in bytes per second.
    BandwidthBps,
    /// Spatial resolution in total pixels.
    ResolutionPx,
    /// Any application-defined dimension.
    Custom(String),
}

impl fmt::Display for QosKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosKey::FrameRateHz => f.write_str("frame-rate-hz"),
            QosKey::SampleRateHz => f.write_str("sample-rate-hz"),
            QosKey::LatencyMs => f.write_str("latency-ms"),
            QosKey::JitterMs => f.write_str("jitter-ms"),
            QosKey::BandwidthBps => f.write_str("bandwidth-bps"),
            QosKey::ResolutionPx => f.write_str("resolution-px"),
            QosKey::Custom(s) => write!(f, "custom:{s}"),
        }
    }
}

/// A closed range `[min, max]` of acceptable values for one dimension.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct QosRange {
    min: f64,
    max: f64,
}

impl QosRange {
    /// A range from `min` to `max` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is NaN.
    #[must_use]
    pub fn new(min: f64, max: f64) -> QosRange {
        assert!(!min.is_nan() && !max.is_nan(), "QoS bounds must not be NaN");
        assert!(min <= max, "QoS range requires min <= max ({min} > {max})");
        QosRange { min, max }
    }

    /// The single-point range `[v, v]`.
    #[must_use]
    pub fn exactly(v: f64) -> QosRange {
        QosRange::new(v, v)
    }

    /// The range `(-inf, v]`.
    #[must_use]
    pub fn at_most(v: f64) -> QosRange {
        QosRange::new(f64::NEG_INFINITY, v)
    }

    /// Lower bound.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether `v` lies within the range.
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }

    /// The overlap of two ranges, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &QosRange) -> Option<QosRange> {
        let min = self.min.max(other.min);
        let max = self.max.min(other.max);
        (min <= max).then(|| QosRange::new(min, max))
    }

    /// Whether this range lies entirely within `other`.
    #[must_use]
    pub(crate) fn is_subrange_of(&self, other: &QosRange) -> bool {
        self.min >= other.min && self.max <= other.max
    }

    /// Clamps a value into the range.
    #[must_use]
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.min, self.max)
    }
}

impl fmt::Display for QosRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

/// A set of QoS constraints: one range per constrained dimension.
///
/// Absent dimensions are unconstrained ("don't know / don't care").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QosMap {
    ranges: BTreeMap<QosKey, QosRange>,
}

impl QosMap {
    /// An empty (fully unconstrained) map.
    #[must_use]
    pub fn new() -> QosMap {
        QosMap::default()
    }

    /// Sets the range for a dimension, returning the previous range.
    pub fn set(&mut self, key: QosKey, range: QosRange) -> Option<QosRange> {
        self.ranges.insert(key, range)
    }

    /// The range constraining `key`, if any.
    #[must_use]
    pub fn get(&self, key: &QosKey) -> Option<QosRange> {
        self.ranges.get(key).copied()
    }

    /// Removes the constraint on `key`.
    pub fn clear(&mut self, key: &QosKey) -> Option<QosRange> {
        self.ranges.remove(key)
    }

    /// Number of constrained dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no dimension is constrained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterates over the constrained dimensions.
    pub fn iter(&self) -> impl Iterator<Item = (&QosKey, &QosRange)> {
        self.ranges.iter()
    }

    /// Intersects two maps dimension-wise. Dimensions present on only one
    /// side are carried through unchanged (the other side doesn't care).
    ///
    /// # Errors
    ///
    /// [`TypeError::QosDisjoint`] when a dimension constrained by both
    /// sides has no overlap.
    pub fn intersect(&self, other: &QosMap) -> Result<QosMap, TypeError> {
        let mut out = self.clone();
        for (key, range) in &other.ranges {
            match out.ranges.get(key) {
                None => {
                    out.ranges.insert(key.clone(), *range);
                }
                Some(mine) => match mine.intersect(range) {
                    Some(meet) => {
                        out.ranges.insert(key.clone(), meet);
                    }
                    None => {
                        return Err(TypeError::QosDisjoint {
                            key: key.clone(),
                            left: *mine,
                            right: *range,
                        });
                    }
                },
            }
        }
        Ok(out)
    }

    /// Whether every constraint in `other` is satisfied by this map: each
    /// dimension `other` constrains must be constrained here to a
    /// subrange.
    #[must_use]
    pub fn satisfies(&self, other: &QosMap) -> bool {
        other.ranges.iter().all(|(key, theirs)| {
            self.ranges
                .get(key)
                .is_some_and(|mine| mine.is_subrange_of(theirs))
        })
    }
}

impl FromIterator<(QosKey, QosRange)> for QosMap {
    fn from_iter<I: IntoIterator<Item = (QosKey, QosRange)>>(iter: I) -> Self {
        QosMap {
            ranges: iter.into_iter().collect(),
        }
    }
}

impl Extend<(QosKey, QosRange)> for QosMap {
    fn extend<I: IntoIterator<Item = (QosKey, QosRange)>>(&mut self, iter: I) {
        self.ranges.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_intersection_overlaps() {
        let a = QosRange::new(10.0, 30.0);
        let b = QosRange::new(20.0, 60.0);
        assert_eq!(a.intersect(&b), Some(QosRange::new(20.0, 30.0)));
        let c = QosRange::new(40.0, 50.0);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn range_membership_and_clamp() {
        let r = QosRange::new(5.0, 10.0);
        assert!(r.contains(5.0));
        assert!(r.contains(10.0));
        assert!(!r.contains(10.1));
        assert_eq!(r.clamp(12.0), 10.0);
        assert_eq!(r.clamp(1.0), 5.0);
        assert_eq!(r.clamp(7.5), 7.5);
    }

    #[test]
    fn half_open_constructors() {
        assert!(QosRange::at_most(3.0).contains(-1e12));
        assert!(QosRange::exactly(4.0).contains(4.0));
        assert!(!QosRange::exactly(4.0).contains(4.1));
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn inverted_range_panics() {
        let _ = QosRange::new(2.0, 1.0);
    }

    #[test]
    fn map_intersection_carries_one_sided_constraints() {
        let a: QosMap = [(QosKey::FrameRateHz, QosRange::new(10.0, 60.0))]
            .into_iter()
            .collect();
        let b: QosMap = [
            (QosKey::FrameRateHz, QosRange::at_most(30.0)),
            (QosKey::LatencyMs, QosRange::at_most(100.0)),
        ]
        .into_iter()
        .collect();
        let m = a.intersect(&b).unwrap();
        assert_eq!(m.get(&QosKey::FrameRateHz), Some(QosRange::new(10.0, 30.0)));
        assert_eq!(m.get(&QosKey::LatencyMs), Some(QosRange::at_most(100.0)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn map_intersection_fails_on_disjoint_dimension() {
        let a: QosMap = [(QosKey::FrameRateHz, QosRange::new(50.0, 60.0))]
            .into_iter()
            .collect();
        let b: QosMap = [(QosKey::FrameRateHz, QosRange::new(10.0, 20.0))]
            .into_iter()
            .collect();
        let err = a.intersect(&b).unwrap_err();
        assert!(matches!(err, TypeError::QosDisjoint { .. }));
    }

    #[test]
    fn satisfies_requires_subranges() {
        let offered: QosMap = [(QosKey::FrameRateHz, QosRange::new(25.0, 30.0))]
            .into_iter()
            .collect();
        let wanted: QosMap = [(QosKey::FrameRateHz, QosRange::new(10.0, 60.0))]
            .into_iter()
            .collect();
        assert!(offered.satisfies(&wanted));
        assert!(!wanted.satisfies(&offered));
        // A dimension the requirement constrains but we don't know fails.
        let strict: QosMap = [(QosKey::LatencyMs, QosRange::at_most(10.0))]
            .into_iter()
            .collect();
        assert!(!offered.satisfies(&strict));
        // An empty requirement is always satisfied.
        assert!(offered.satisfies(&QosMap::new()));
    }
}
