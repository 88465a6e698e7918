//! Split tees: in-section components with one in-port and several
//! out-ports (§2.1, §3.3).
//!
//! A split tee is *non-buffering*: it has exactly one passive port (the
//! in-port) and pushes onward on all branches, so it lives inside a push
//! section and is shepherded by that section's pump. The planner rejects
//! tees in pull position — that is the paper's pull-mode switch problem,
//! which would require unpredictable implicit buffering (§3.3).
//!
//! Merging (and the *activity-routing* switch, the paper's noted
//! exception) is provided by buffers with multiple in-/out-edges instead;
//! see [`crate::buffer`].

use crate::item::Item;

/// How a split tee distributes items to its out-ports.
pub(crate) enum SplitKind {
    /// Copy every item to every branch (requires cloneable items).
    Multicast,
    /// Route each item to the branch selected by the function
    /// (`index % branch_count` is applied defensively).
    Router(Box<dyn FnMut(&Item) -> usize + Send>),
}

impl SplitKind {
    /// A router built from a closure.
    #[must_use]
    pub(crate) fn router(f: impl FnMut(&Item) -> usize + Send + 'static) -> SplitKind {
        SplitKind::Router(Box::new(f))
    }

    /// The kind's name for plan reports.
    #[must_use]
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            SplitKind::Multicast => "multicast",
            SplitKind::Router(_) => "router",
        }
    }
}

impl std::fmt::Debug for SplitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_names() {
        assert_eq!(SplitKind::Multicast.kind_name(), "multicast");
        assert_eq!(SplitKind::router(|_| 0).kind_name(), "router");
        assert_eq!(format!("{:?}", SplitKind::Multicast), "multicast");
    }

    #[test]
    fn router_closure_is_callable() {
        let mut k = SplitKind::router(|item| item.meta.seq as usize % 2);
        if let SplitKind::Router(f) = &mut k {
            assert_eq!(f(&Item::new(()).with_seq(3)), 1);
            assert_eq!(f(&Item::new(()).with_seq(4)), 0);
        } else {
            panic!("expected router");
        }
    }
}
