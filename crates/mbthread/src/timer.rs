//! Kernel timers: deadlines that wake sleeping threads or deliver messages.
//!
//! Timers are the bridge between time and the message interface: a clocked
//! pump, for example, asks the kernel to deliver a `TICK` message at an
//! absolute deadline and keeps receiving — so it stays receptive to control
//! events while it waits, exactly as §4 of the paper requires.

use crate::clock::Time;
use crate::constraint::Constraint;
use crate::message::Message;
use crate::thread::ThreadId;
use std::cmp::Ordering;
use std::fmt;

/// Handle for cancelling a pending timer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer:{}", self.0)
    }
}

/// What happens when a timer fires.
pub(crate) enum TimerKind {
    /// Wake a thread blocked in a sleep.
    Wake(ThreadId),
    /// Deliver a message to a thread's mailbox.
    Deliver {
        to: ThreadId,
        msg: Message,
        constraint: Option<Constraint>,
    },
}

pub(crate) struct TimerEntry {
    pub(crate) kind: TimerKind,
    /// Lazily-cancelled timers stay in the heap but are skipped on fire.
    pub(crate) cancelled: bool,
}

/// Min-heap key: earliest deadline first, then creation order.
#[derive(Copy, Clone, PartialEq, Eq)]
pub(crate) struct TimerKey {
    pub(crate) at: Time,
    pub(crate) id: TimerId,
}

impl Ord for TimerKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest deadline
        // (and among equal deadlines the earliest-created timer) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.id.0.cmp(&self.id.0))
    }
}

impl PartialOrd for TimerKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_earliest_deadline_first() {
        let mut heap = BinaryHeap::new();
        heap.push(TimerKey {
            at: Time::from_millis(5),
            id: TimerId(0),
        });
        heap.push(TimerKey {
            at: Time::from_millis(1),
            id: TimerId(1),
        });
        heap.push(TimerKey {
            at: Time::from_millis(3),
            id: TimerId(2),
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|k| k.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_deadlines_fire_in_creation_order() {
        let mut heap = BinaryHeap::new();
        for id in [2u64, 0, 1] {
            heap.push(TimerKey {
                at: Time::from_millis(1),
                id: TimerId(id),
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|k| k.id.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
