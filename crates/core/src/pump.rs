//! Pumps: the components that keep information flowing.
//!
//! A pump has two active ends: its thread pulls items from the passive
//! stages upstream and pushes them through the passive stages downstream,
//! as far as the nearest buffers (§2.2, Fig. 2). Pumps encapsulate all
//! timing control and scheduler interaction (§3.1): choosing a pump and
//! setting its parameters is the *only* thread-related decision an
//! application programmer makes.
//!
//! Two classes of built-in pumps reproduce the paper's taxonomy:
//!
//! * [`ClockedPump`] — runs at a constant rate (the paper's clock-driven
//!   class); its rate can be adjusted at runtime via
//!   [`ControlEvent::SetRate`], which is the hook feedback controllers use.
//! * [`FreePump`] — does not limit its own rate; it relies on blocking
//!   buffers for pacing, and parks until an arrival notification when its
//!   upstream runs dry. This is also the pump used at the consumer end of
//!   a netpipe, where network arrivals (mapped to messages) provide the
//!   activity.
//!
//! Custom pumps implement [`Pump`]: a scheduling *policy*, kept deliberately
//! free of any thread or scheduler mechanics — those stay in the middleware.
//!
//! # What a cycle costs the scheduler
//!
//! The middleware pays for a kernel operation only where the schedule
//! demands one. A cycle scheduled [`Schedule::At`] a time is a kernel
//! timer and its message. A cycle scheduled [`Schedule::Immediately`]
//! (or [`Schedule::OnArrival`] with data already waiting) runs in the
//! same invocation of the pump's thread as the one before it, with no
//! kernel message in between, for as long as nothing needs the thread:
//! control events the thread has queued are handled first, between two
//! items (§3.2); a message in the thread's mailbox — a control event from
//! elsewhere, a stop request — is received first; a more urgent runnable
//! thread gets the CPU first (when the kernel preempts at all); and a
//! kernel shutting down ends the run. The pump's thread learns of all
//! these by comparing one kernel-wide generation word per cycle
//! ([`mbthread::Ctx::undisturbed`]). Among threads of equal urgency a
//! free-running pump keeps the CPU until it blocks — on a full or empty
//! buffer, or on a coroutine — which is the hand-off rule the kernel has
//! for any thread with a message waiting.

use crate::events::ControlEvent;
use mbthread::{Constraint, Priority, Time};
use std::time::Duration;

/// When a pump wants its next cycle to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Run a cycle at the given kernel time.
    At(Time),
    /// Run a cycle as soon as possible, after pending control events,
    /// without a kernel message when nothing else needs the thread.
    Immediately,
    /// Park until the upstream boundary signals an arrival.
    OnArrival,
    /// Do not schedule further cycles.
    Stopped,
}

/// What happened during one pump cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CycleOutcome {
    /// An item moved through the section.
    Moved,
    /// The upstream boundary had nothing (non-blocking empty policy).
    UpstreamEmpty,
    /// The upstream reported end of stream.
    Eos,
    /// The cycle was aborted by a stop request.
    Interrupted,
}

/// The scheduling policy of a pump.
///
/// The middleware owns the pump's thread; implementations only decide
/// *when* cycles happen and what scheduling constraint they carry. All
/// methods run on the section's thread.
pub trait Pump: Send + 'static {
    /// A short name for diagnostics; defaults to the type name.
    fn name(&self) -> &str {
        std::any::type_name::<Self>()
    }

    /// Static priority for the section's thread (and, via constraint
    /// inheritance, for its whole coroutine set). Latency-critical pumps
    /// (audio) return [`Priority::HIGH`].
    fn thread_priority(&self) -> Priority {
        Priority::NORMAL
    }

    /// Called when the pipeline starts; returns the first cycle's
    /// schedule.
    fn on_start(&mut self, now: Time) -> Schedule;

    /// Called after each cycle; returns the next cycle's schedule.
    fn after_cycle(&mut self, now: Time, outcome: CycleOutcome) -> Schedule;

    /// Handles a control event; returning `Some` reschedules the next
    /// cycle (used by [`ControlEvent::SetRate`] and stop handling).
    fn on_event(&mut self, now: Time, event: &ControlEvent) -> Option<Schedule> {
        let _ = (now, event);
        None
    }

    /// The constraint attached to the next cycle's messages. The default
    /// is the pump's thread priority; clocked pumps add their tick
    /// deadline so earlier deadlines win within a priority band.
    fn cycle_constraint(&self, now: Time) -> Option<Constraint> {
        let _ = now;
        Some(Constraint::priority(self.thread_priority()))
    }
}

/// A clock-driven pump running at a constant (but adjustable) rate.
///
/// Ticks are scheduled at absolute times (`t0 + n·period`), so rate is
/// drift-free under light load; when a cycle overruns its period the pump
/// re-anchors at the current time rather than bursting to catch up — live
/// media prefers dropped ticks over bursts.
#[derive(Debug)]
pub struct ClockedPump {
    period: Duration,
    next: Option<Time>,
    priority: Priority,
    /// Stop automatically at end of stream (default true).
    stop_at_eos: bool,
}

impl ClockedPump {
    /// A pump ticking `hz` times per second.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    #[must_use]
    pub fn hz(hz: f64) -> ClockedPump {
        assert!(hz.is_finite() && hz > 0.0, "pump rate must be positive");
        ClockedPump {
            period: Duration::from_secs_f64(1.0 / hz),
            next: None,
            priority: Priority::NORMAL,
            stop_at_eos: true,
        }
    }

    /// A pump with an explicit period.
    #[must_use]
    pub fn with_period(period: Duration) -> ClockedPump {
        assert!(period > Duration::ZERO, "pump period must be positive");
        ClockedPump {
            period,
            next: None,
            priority: Priority::NORMAL,
            stop_at_eos: true,
        }
    }

    /// Sets the static priority of the pump's thread.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> ClockedPump {
        self.priority = priority;
        self
    }

    /// The current period.
    #[must_use]
    pub fn period(&self) -> Duration {
        self.period
    }
}

impl Pump for ClockedPump {
    fn name(&self) -> &str {
        "clocked-pump"
    }

    fn thread_priority(&self) -> Priority {
        self.priority
    }

    fn on_start(&mut self, now: Time) -> Schedule {
        let at = now + self.period;
        self.next = Some(at);
        Schedule::At(at)
    }

    fn after_cycle(&mut self, now: Time, outcome: CycleOutcome) -> Schedule {
        match outcome {
            CycleOutcome::Eos if self.stop_at_eos => {
                self.next = None;
                Schedule::Stopped
            }
            CycleOutcome::Interrupted => {
                self.next = None;
                Schedule::Stopped
            }
            _ => {
                let anchor = self.next.unwrap_or(now);
                let mut at = anchor + self.period;
                if at <= now {
                    // Overrun: re-anchor instead of bursting.
                    at = now + self.period;
                }
                self.next = Some(at);
                Schedule::At(at)
            }
        }
    }

    fn on_event(&mut self, now: Time, event: &ControlEvent) -> Option<Schedule> {
        match event {
            ControlEvent::SetRate(hz) if hz.is_finite() && *hz > 0.0 => {
                self.period = Duration::from_secs_f64(1.0 / hz);
                let at = now + self.period;
                self.next = Some(at);
                Some(Schedule::At(at))
            }
            _ => None,
        }
    }

    fn cycle_constraint(&self, _now: Time) -> Option<Constraint> {
        // The next tick is this cycle's deadline: within a priority band,
        // pumps with nearer ticks run first (EDF).
        match self.next {
            Some(at) => Some(Constraint::with_deadline(self.priority, at)),
            None => Some(Constraint::priority(self.priority)),
        }
    }
}

/// A pump that does not limit its own rate (the paper's second class):
/// it cycles continuously, relying on blocking buffers to pace it, and
/// parks for an arrival notification when its upstream is empty.
#[derive(Debug)]
pub struct FreePump {
    priority: Priority,
}

impl FreePump {
    /// Creates a free-running pump at normal priority.
    #[must_use]
    pub fn new() -> FreePump {
        FreePump {
            priority: Priority::NORMAL,
        }
    }

    /// Sets the static priority of the pump's thread.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> FreePump {
        self.priority = priority;
        self
    }
}

impl Default for FreePump {
    fn default() -> Self {
        FreePump::new()
    }
}

impl Pump for FreePump {
    fn name(&self) -> &str {
        "free-pump"
    }

    fn thread_priority(&self) -> Priority {
        self.priority
    }

    fn on_start(&mut self, _now: Time) -> Schedule {
        Schedule::Immediately
    }

    fn after_cycle(&mut self, _now: Time, outcome: CycleOutcome) -> Schedule {
        match outcome {
            CycleOutcome::Moved => Schedule::Immediately,
            CycleOutcome::UpstreamEmpty => Schedule::OnArrival,
            CycleOutcome::Eos | CycleOutcome::Interrupted => Schedule::Stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocked_pump_ticks_drift_free() {
        let mut p = ClockedPump::hz(10.0); // 100 ms
        let s0 = p.on_start(Time::ZERO);
        assert_eq!(s0, Schedule::At(Time::from_millis(100)));
        // Cycle ran promptly: next tick anchored at 200 ms even though the
        // cycle finished at 105 ms.
        let s1 = p.after_cycle(Time::from_millis(105), CycleOutcome::Moved);
        assert_eq!(s1, Schedule::At(Time::from_millis(200)));
        // Skipping-the-anchor case: a huge overrun re-anchors.
        let s2 = p.after_cycle(Time::from_millis(950), CycleOutcome::Moved);
        assert_eq!(s2, Schedule::At(Time::from_millis(1050)));
    }

    #[test]
    fn clocked_pump_stops_at_eos() {
        let mut p = ClockedPump::hz(30.0);
        let _ = p.on_start(Time::ZERO);
        assert_eq!(
            p.after_cycle(Time::from_millis(33), CycleOutcome::Eos),
            Schedule::Stopped
        );
    }

    #[test]
    fn clocked_pump_set_rate_reschedules() {
        let mut p = ClockedPump::hz(10.0);
        let _ = p.on_start(Time::ZERO);
        let s = p.on_event(Time::from_millis(100), &ControlEvent::SetRate(100.0));
        assert_eq!(s, Some(Schedule::At(Time::from_millis(110))));
        assert_eq!(p.period(), Duration::from_millis(10));
        // Invalid rates are ignored.
        assert_eq!(p.on_event(Time::ZERO, &ControlEvent::SetRate(0.0)), None);
        assert_eq!(p.on_event(Time::ZERO, &ControlEvent::Start), None);
    }

    #[test]
    fn clocked_pump_constraint_carries_deadline() {
        let mut p = ClockedPump::hz(10.0).priority(Priority::HIGH);
        let _ = p.on_start(Time::ZERO);
        let c = p.cycle_constraint(Time::ZERO).unwrap();
        assert_eq!(c.priority, Priority::HIGH);
        assert_eq!(c.deadline, Some(Time::from_millis(100)));
    }

    #[test]
    fn free_pump_follows_supply() {
        let mut p = FreePump::new();
        assert_eq!(p.on_start(Time::ZERO), Schedule::Immediately);
        assert_eq!(
            p.after_cycle(Time::ZERO, CycleOutcome::Moved),
            Schedule::Immediately
        );
        assert_eq!(
            p.after_cycle(Time::ZERO, CycleOutcome::UpstreamEmpty),
            Schedule::OnArrival
        );
        assert_eq!(
            p.after_cycle(Time::ZERO, CycleOutcome::Eos),
            Schedule::Stopped
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = ClockedPump::hz(0.0);
    }
}
