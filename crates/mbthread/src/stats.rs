//! Kernel statistics, used by the benchmark harness to count context
//! switches and messages per pipeline item (experiments E1, E2, E6).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the kernel.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub(crate) context_switches: AtomicU64,
    pub(crate) messages_sent: AtomicU64,
    pub(crate) sync_sends: AtomicU64,
    pub(crate) timer_fires: AtomicU64,
    pub(crate) threads_spawned: AtomicU64,
    pub(crate) dispatcher_wakeups: AtomicU64,
}

impl StatCounters {
    pub(crate) fn snapshot(&self) -> KernelStats {
        KernelStats {
            context_switches: self.context_switches.load(Ordering::Relaxed),
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            sync_sends: self.sync_sends.load(Ordering::Relaxed),
            timer_fires: self.timer_fires.load(Ordering::Relaxed),
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            dispatcher_wakeups: self.dispatcher_wakeups.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of kernel activity counters.
///
/// Obtain one with [`Kernel::stats`](crate::Kernel::stats); subtract two
/// snapshots with [`KernelStats::delta_since`] to measure the cost of a
/// workload in context switches and messages.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of times the CPU was handed from one thread to a *different*
    /// thread.
    pub context_switches: u64,
    /// Total envelopes enqueued (async + sync + replies + timer
    /// deliveries).
    pub messages_sent: u64,
    /// Synchronous sends initiated.
    pub sync_sends: u64,
    /// Timers that fired.
    pub timer_fires: u64,
    /// Threads spawned over the kernel's lifetime.
    pub threads_spawned: u64,
    /// Times the dispatcher OS thread came back from sleeping on its
    /// condition variable (notified or timed out). It is woken only when
    /// the kernel goes idle with a clock jump or a quiescence waiter
    /// pending, when a timer is armed, when a clock hold is released, and
    /// at shutdown — never per message, so a timer-free message exchange
    /// leaves this counter unchanged.
    pub dispatcher_wakeups: u64,
}

impl KernelStats {
    /// The counters as `(name, value)` pairs, in a fixed order — the
    /// enumeration observability exporters iterate instead of hard-coding
    /// the field list.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("context_switches", self.context_switches),
            ("messages_sent", self.messages_sent),
            ("sync_sends", self.sync_sends),
            ("timer_fires", self.timer_fires),
            ("threads_spawned", self.threads_spawned),
            ("dispatcher_wakeups", self.dispatcher_wakeups),
        ]
    }

    /// Counter increases since the `earlier` snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            context_switches: self.context_switches - earlier.context_switches,
            messages_sent: self.messages_sent - earlier.messages_sent,
            sync_sends: self.sync_sends - earlier.sync_sends,
            timer_fires: self.timer_fires - earlier.timer_fires,
            threads_spawned: self.threads_spawned - earlier.threads_spawned,
            dispatcher_wakeups: self.dispatcher_wakeups - earlier.dispatcher_wakeups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = KernelStats {
            context_switches: 10,
            messages_sent: 20,
            sync_sends: 5,
            timer_fires: 2,
            threads_spawned: 3,
            dispatcher_wakeups: 7,
        };
        let b = KernelStats {
            context_switches: 4,
            messages_sent: 9,
            sync_sends: 1,
            timer_fires: 0,
            threads_spawned: 3,
            dispatcher_wakeups: 6,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.context_switches, 6);
        assert_eq!(d.messages_sent, 11);
        assert_eq!(d.sync_sends, 4);
        assert_eq!(d.timer_fires, 2);
        assert_eq!(d.threads_spawned, 0);
        assert_eq!(d.dispatcher_wakeups, 1);
    }

    #[test]
    fn counters_snapshot_matches_bumps() {
        let c = StatCounters::default();
        StatCounters::bump(&c.messages_sent);
        StatCounters::bump(&c.messages_sent);
        StatCounters::bump(&c.context_switches);
        let s = c.snapshot();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.context_switches, 1);
        assert_eq!(s.sync_sends, 0);
    }
}
