//! Kernel statistics: the context switches and messages per pipeline item
//! that `infopipes-bench`'s claim tests (`a_switch_costs_more_than_ten_calls`,
//! `all_fig9_configs_match_the_paper`, `midi_overhead_rows_are_exact`) and
//! the benchmark count.
//!
//! Every counter but `os_wakes` has one writer: the holder of the kernel
//! mutex. It is advanced by a plain load and store ([`Counter::bump`],
//! which needs the `&mut` [`KState`] that the mutex guard gives), so a
//! hand-off does no locked read-modify-write beyond the mutex itself.
//! Readers take no lock.

use crate::sched::KState;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the kernel.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub(crate) context_switches: Counter,
    pub(crate) messages_sent: Counter,
    pub(crate) sync_sends: Counter,
    pub(crate) timer_fires: Counter,
    pub(crate) threads_spawned: Counter,
    pub(crate) dispatcher_wakeups: Counter,
    /// Counted after the mutex is released, by whichever OS thread issues
    /// the wake (`Wakes::deliver`): the one counter with many writers.
    os_wakes: AtomicU64,
}

impl StatCounters {
    pub(crate) fn snapshot(&self) -> KernelStats {
        KernelStats {
            context_switches: self.context_switches.get(),
            messages_sent: self.messages_sent.get(),
            sync_sends: self.sync_sends.get(),
            timer_fires: self.timer_fires.get(),
            threads_spawned: self.threads_spawned.get(),
            dispatcher_wakeups: self.dispatcher_wakeups.get(),
            os_wakes: self.os_wakes.load(Ordering::Relaxed),
        }
    }

    /// Counts one condvar notification; callable from any OS thread.
    pub(crate) fn os_wake(&self) {
        self.os_wakes.fetch_add(1, Ordering::Relaxed);
    }
}

/// A counter written only under the kernel mutex. One writer at a time
/// needs no locked read-modify-write: the mutex orders each bump after the
/// last, so a relaxed load and a store advance it, as
/// [`KState::disturb`] advances the generation.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Advances the counter by one. The caller must hold the kernel
    /// mutex: the `&mut KState` it needs is what the mutex guard gives,
    /// which makes a bump outside the mutex hard to write by mistake,
    /// though the compiler does not tie it to this counter's kernel.
    pub(crate) fn bump(&self, _held: &mut KState) {
        let next = self.0.load(Ordering::Relaxed) + 1;
        self.0.store(next, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time snapshot of kernel activity counters.
///
/// Obtain one with [`Kernel::stats`](crate::Kernel::stats); subtract two
/// snapshots with [`KernelStats::delta_since`] to measure the cost of a
/// workload in context switches and messages, and in the OS wakes the
/// kernel needed for them (`os_wakes`, `dispatcher_wakeups`).
///
/// Every counter but `os_wakes` has one writer, the holder of the kernel
/// mutex, and each is exact. A snapshot reads them one by one without the
/// mutex, so one taken while the kernel runs may tear across fields (hold
/// a message's count but not yet its switch's); one taken while the
/// kernel is quiescent does not.
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
    /// the kernel goes idle with a virtual-clock jump pending, when a timer
    /// is armed, when a clock hold is released, when a polled thread is
    /// granted the CPU with no OS thread there to poll it, and at shutdown
    /// — never per message, so a timer-free message exchange leaves this
    /// counter unchanged. `wait_quiescent` callers sleep on a condvar of
    /// their own.
    pub dispatcher_wakeups: u64,
    /// Condition-variable notifications the kernel issued: one per wake of
    /// an OS thread parked in a kernel thread or an external port, one per
    /// notification of the dispatcher. A hand-off notifies only an OS
    /// thread that sleeps, so one between polled threads, or back to the
    /// OS thread that polled the yielding thread, leaves this unchanged.
    pub os_wakes: u64,
}

impl KernelStats {
    /// The counters as `(name, value)` pairs, in a fixed order — the
    /// enumeration observability exporters iterate instead of hard-coding
    /// the field list.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("context_switches", self.context_switches),
            ("messages_sent", self.messages_sent),
            ("sync_sends", self.sync_sends),
            ("timer_fires", self.timer_fires),
            ("threads_spawned", self.threads_spawned),
            ("dispatcher_wakeups", self.dispatcher_wakeups),
            ("os_wakes", self.os_wakes),
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
            os_wakes: self.os_wakes - earlier.os_wakes,
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
            os_wakes: 9,
        };
        let b = KernelStats {
            context_switches: 4,
            messages_sent: 9,
            sync_sends: 1,
            timer_fires: 0,
            threads_spawned: 3,
            dispatcher_wakeups: 6,
            os_wakes: 4,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.context_switches, 6);
        assert_eq!(d.messages_sent, 11);
        assert_eq!(d.sync_sends, 4);
        assert_eq!(d.timer_fires, 2);
        assert_eq!(d.threads_spawned, 0);
        assert_eq!(d.dispatcher_wakeups, 1);
        assert_eq!(d.os_wakes, 5);
    }

    #[test]
    fn counters_snapshot_matches_bumps() {
        let c = StatCounters::default();
        let mut held = KState::new();
        c.messages_sent.bump(&mut held);
        c.messages_sent.bump(&mut held);
        c.context_switches.bump(&mut held);
        let s = c.snapshot();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.context_switches, 1);
        assert_eq!(s.sync_sends, 0);
    }
}
