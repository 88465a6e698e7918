//! Item types: the runtime description of a flow's data format.
//!
//! The Infopipe engine is dynamically typed at connection points (items
//! travel as type-erased boxes), so "dynamic type-checking and evaluation
//! of possible compositions" (§2.3) works over these descriptors: a Rust
//! `TypeId` plus a human-readable name, with a wildcard for components that
//! handle any item (plain byte pipes, counters, tees).

use std::any::TypeId;
use std::fmt;

/// The format of the items in a flow.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ItemType {
    name: String,
    /// `None` for the wildcard and for named-only formats.
    id: Option<TypeId>,
}

impl ItemType {
    /// The item type for the Rust type `T`.
    #[must_use]
    pub fn of<T: 'static>() -> ItemType {
        ItemType {
            name: std::any::type_name::<T>().to_owned(),
            id: Some(TypeId::of::<T>()),
        }
    }

    /// A wildcard that matches any item type ("don't care").
    #[must_use]
    pub fn any() -> ItemType {
        ItemType {
            name: "*".to_owned(),
            id: None,
        }
    }

    /// A named format without a Rust type identity, such as the encoded
    /// stream a decoder accepts in a §2.3 composition check; it matches
    /// other descriptors by name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> ItemType {
        ItemType {
            name: name.into(),
            id: None,
        }
    }

    /// The human-readable format name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is the wildcard type.
    #[must_use]
    pub(crate) fn is_any(&self) -> bool {
        self.id.is_none() && self.name == "*"
    }

    /// Whether items of this type can flow where `other` is expected.
    ///
    /// The wildcard is compatible with everything. Two typed descriptors
    /// must have the same `TypeId`; a named-only descriptor falls back to
    /// name equality.
    #[must_use]
    pub fn compatible_with(&self, other: &ItemType) -> bool {
        if self.is_any() || other.is_any() {
            return true;
        }
        match (self.id, other.id) {
            (Some(a), Some(b)) => a == b,
            _ => self.name == other.name,
        }
    }

    /// The more specific of two compatible types (a wildcard defers to the
    /// other side); `None` when incompatible.
    #[must_use]
    pub fn meet(&self, other: &ItemType) -> Option<ItemType> {
        if !self.compatible_with(other) {
            return None;
        }
        if self.is_any() {
            Some(other.clone())
        } else {
            Some(self.clone())
        }
    }
}

impl Default for ItemType {
    fn default() -> Self {
        ItemType::any()
    }
}

impl fmt::Display for ItemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_descriptors_match_by_type_id() {
        assert!(ItemType::of::<u32>().compatible_with(&ItemType::of::<u32>()));
        assert!(!ItemType::of::<u32>().compatible_with(&ItemType::of::<u64>()));
    }

    #[test]
    fn wildcard_matches_everything() {
        let any = ItemType::any();
        assert!(any.is_any());
        assert!(any.compatible_with(&ItemType::of::<String>()));
        assert!(ItemType::of::<String>().compatible_with(&any));
        assert!(any.compatible_with(&any));
    }

    #[test]
    fn named_formats_match_by_name() {
        let a = ItemType::named("mpeg-frame");
        let b = ItemType::named("mpeg-frame");
        let c = ItemType::named("raw-frame");
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
        // A named format is compatible with a typed one only via name.
        assert!(!a.compatible_with(&ItemType::of::<u32>()));
    }

    #[test]
    fn meet_prefers_the_specific_side() {
        let any = ItemType::any();
        let typed = ItemType::of::<u8>();
        assert_eq!(any.meet(&typed), Some(typed.clone()));
        assert_eq!(typed.meet(&any), Some(typed.clone()));
        assert_eq!(typed.meet(&ItemType::of::<u16>()), None);
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(ItemType::named("pcm").to_string(), "pcm");
        assert_eq!(ItemType::any().to_string(), "*");
    }
}
