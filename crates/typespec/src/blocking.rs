//! Blocking behaviour: what happens when a push meets a full buffer or a
//! pull meets an empty one (§2.3, third property).

use std::fmt;

/// Behaviour of a `push` into a component that cannot accept the item
/// immediately.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum OnFull {
    /// Suspend the pushing thread until space is available.
    #[default]
    Block,
    /// Drop the newly pushed item.
    DropNewest,
    /// Drop the oldest stored item to make room (keeps the flow fresh,
    /// useful for live video).
    DropOldest,
}

impl fmt::Display for OnFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OnFull::Block => "block",
            OnFull::DropNewest => "drop-newest",
            OnFull::DropOldest => "drop-oldest",
        };
        f.write_str(s)
    }
}

/// Behaviour of a `pull` from a component with nothing to deliver.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum OnEmpty {
    /// Suspend the pulling thread until an item is available.
    #[default]
    Block,
    /// Return no item (`None`), letting the caller decide.
    ReturnNone,
}

impl fmt::Display for OnEmpty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OnEmpty::Block => "block",
            OnEmpty::ReturnNone => "return-none",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_block() {
        assert_eq!(OnFull::default(), OnFull::Block);
        assert_eq!(OnEmpty::default(), OnEmpty::Block);
    }

    #[test]
    fn displays_are_nonempty() {
        for p in [OnFull::Block, OnFull::DropNewest, OnFull::DropOldest] {
            assert!(!p.to_string().is_empty());
        }
        for p in [OnEmpty::Block, OnEmpty::ReturnNone] {
            assert!(!p.to_string().is_empty());
        }
    }
}
