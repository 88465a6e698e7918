//! Priorities and message constraints.
//!
//! The scheduler orders threads by *urgency*: a total order over
//! [`Constraint`]s in which a higher [`Priority`] always wins and, between
//! equal priorities, an earlier deadline wins (earliest-deadline-first
//! within a priority band). A thread's *effective* constraint is derived
//! from the message it is processing, per §4 of the paper.

use crate::clock::Time;
use std::cmp::Ordering;
use std::fmt;

/// A static scheduling priority. Larger values are more urgent.
///
/// Priorities order threads that have no message constraint, and act as the
/// priority component of a [`Constraint`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub i32);

impl Priority {
    /// The default priority for data-processing threads.
    pub const NORMAL: Priority = Priority(0);
    /// A background priority below [`Priority::NORMAL`].
    pub const LOW: Priority = Priority(-10);
    /// An elevated priority for latency-sensitive threads (e.g. audio
    /// pumps).
    pub const HIGH: Priority = Priority(10);
    /// The priority at which control events are delivered. The paper
    /// executes control handlers "with higher priority than potentially
    /// long-running data processing" (§2.2), so this sits above
    /// [`Priority::HIGH`].
    pub const CONTROL: Priority = Priority(100);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A scheduling constraint attached to a message.
///
/// Constraints travel with messages: the effective priority of a thread is
/// derived from the constraint of the message that the thread is currently
/// processing or, if the thread is waiting for the CPU, from the constraint
/// of the first message in its incoming queue. In the Infopipe layer, pumps
/// assign constraints and messages between coroutines inherit the constraint
/// of the message the sender is processing, so one pump's constraint governs
/// scheduling across its entire coroutine set.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The priority band of this constraint.
    pub priority: Priority,
    /// An optional absolute deadline. Among equal priorities, earlier
    /// deadlines are scheduled first; a missing deadline is least urgent
    /// within the band.
    pub deadline: Option<Time>,
}

impl Constraint {
    /// Creates a constraint with the given priority and no deadline.
    #[must_use]
    pub const fn priority(priority: Priority) -> Self {
        Constraint {
            priority,
            deadline: None,
        }
    }

    /// Creates a constraint with a priority and an absolute deadline.
    #[must_use]
    pub const fn with_deadline(priority: Priority, deadline: Time) -> Self {
        Constraint {
            priority,
            deadline: Some(deadline),
        }
    }

    /// Compares two constraints by urgency. `Greater` means `self` is more
    /// urgent and should run first.
    #[must_use]
    pub(crate) fn urgency_cmp(&self, other: &Constraint) -> Ordering {
        self.priority.cmp(&other.priority).then_with(|| {
            // Within a priority band, an earlier deadline is more urgent,
            // and any deadline beats no deadline.
            match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => Ordering::Greater,
                (None, Some(_)) => Ordering::Less,
                (None, None) => Ordering::Equal,
            }
        })
    }

    /// Returns the more urgent of two constraints.
    #[must_use]
    pub(crate) fn max_urgency(self, other: Constraint) -> Constraint {
        if self.urgency_cmp(&other) == Ordering::Less {
            other
        } else {
            self
        }
    }
}

impl Default for Constraint {
    fn default() -> Self {
        Constraint::priority(Priority::NORMAL)
    }
}

impl From<Priority> for Constraint {
    fn from(p: Priority) -> Self {
        Constraint::priority(p)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.deadline {
            Some(d) => write!(f, "{}@{}", self.priority, d),
            None => write!(f, "{}", self.priority),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_dominates_deadline() {
        let low_soon = Constraint::with_deadline(Priority::LOW, Time::from_nanos(1));
        let high_late = Constraint::with_deadline(Priority::HIGH, Time::from_secs(100));
        assert_eq!(high_late.urgency_cmp(&low_soon), Ordering::Greater);
    }

    #[test]
    fn earlier_deadline_wins_within_band() {
        let soon = Constraint::with_deadline(Priority::NORMAL, Time::from_millis(1));
        let late = Constraint::with_deadline(Priority::NORMAL, Time::from_millis(2));
        assert_eq!(soon.urgency_cmp(&late), Ordering::Greater);
        assert_eq!(soon.max_urgency(late), soon);
    }

    #[test]
    fn deadline_beats_no_deadline() {
        let with = Constraint::with_deadline(Priority::NORMAL, Time::from_secs(1));
        let without = Constraint::priority(Priority::NORMAL);
        assert_eq!(with.urgency_cmp(&without), Ordering::Greater);
        assert_eq!(without.urgency_cmp(&with), Ordering::Less);
        assert_eq!(without.urgency_cmp(&without), Ordering::Equal);
    }

    #[test]
    fn control_priority_tops_bands() {
        assert!(Priority::CONTROL > Priority::HIGH);
        assert!(Priority::HIGH > Priority::NORMAL);
        assert!(Priority::NORMAL > Priority::LOW);
    }
}
