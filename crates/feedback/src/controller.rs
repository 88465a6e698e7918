//! Controllers: policies mapping sensor readings to actuator commands.

use crate::sensor::SensorReading;
use infopipes::ControlEvent;

/// A feedback policy: observes readings, occasionally emits an actuator
/// command (a control event).
pub trait Controller: Send + 'static {
    /// Processes one reading; returns a command when the policy wants to
    /// adjust an actuator.
    fn observe(&mut self, reading: &SensorReading) -> Option<ControlEvent>;
}

impl<F> Controller for F
where
    F: FnMut(&SensorReading) -> Option<ControlEvent> + Send + 'static,
{
    fn observe(&mut self, reading: &SensorReading) -> Option<ControlEvent> {
        self(reading)
    }
}

/// The drop-level policy of Fig. 1: watches the consumer-side delivery
/// rate and raises or lowers the producer-side
/// `media::PriorityDropFilter`'s level with
/// hysteresis, so dropping happens *before* the congested network, under
/// application control.
pub struct DropLevelController {
    reading_name: String,
    target_rate: f64,
    level: u8,
    max_level: u8,
    /// Raise the level when delivery falls below this fraction of target.
    pub raise_below: f64,
    /// Lower the level when delivery exceeds this fraction of target
    /// (of the *reduced* expectation at the current level).
    pub lower_above: f64,
    /// Consecutive good windows required before lowering (hysteresis).
    pub patience: u32,
    good_windows: u32,
    /// Expected delivery fraction of the nominal rate at each drop level.
    fractions: [f64; 3],
}

impl DropLevelController {
    /// Creates a controller watching `reading_name` against the stream's
    /// nominal rate.
    ///
    /// # Panics
    ///
    /// Panics if `target_rate` is not strictly positive.
    #[must_use]
    pub fn new(reading_name: impl Into<String>, target_rate: f64) -> DropLevelController {
        assert!(
            target_rate > 0.0 && target_rate.is_finite(),
            "target rate must be positive"
        );
        DropLevelController {
            reading_name: reading_name.into(),
            target_rate,
            level: 0,
            max_level: 2,
            raise_below: 0.85,
            lower_above: 0.97,
            patience: 3,
            good_windows: 0,
            fractions: [1.0, 0.34, 0.12],
        }
    }

    /// Overrides the expected delivery fraction at each drop level
    /// (level 0, 1, 2). Use this when the sensed quantity is not frames —
    /// e.g. packets, whose per-level fractions depend on frame sizes.
    #[must_use]
    pub fn with_fractions(mut self, fractions: [f64; 3]) -> DropLevelController {
        self.fractions = fractions;
        self
    }

    /// The current drop level.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The frame rate the pipeline should deliver at the current drop
    /// level, as a fraction of the nominal rate (an `IBBPBB…` stream at
    /// level 1 keeps roughly the reference-frame third).
    fn expected_fraction(&self) -> f64 {
        self.fractions[usize::from(self.level.min(2))]
    }
}

impl Controller for DropLevelController {
    fn observe(&mut self, reading: &SensorReading) -> Option<ControlEvent> {
        if reading.name != self.reading_name {
            return None;
        }
        let expected = self.target_rate * self.expected_fraction();
        let ratio = reading.value / expected;
        if ratio < self.raise_below && self.level < self.max_level {
            self.level += 1;
            self.good_windows = 0;
            return Some(ControlEvent::SetDropLevel(self.level));
        }
        if ratio > self.lower_above && self.level > 0 {
            self.good_windows += 1;
            if self.good_windows >= self.patience {
                self.level -= 1;
                self.good_windows = 0;
                return Some(ControlEvent::SetDropLevel(self.level));
            }
        } else {
            self.good_windows = 0;
        }
        None
    }
}

/// One signal's policy inside a [`UnifiedCongestionController`]: the
/// reading it matches, its raise/lower thresholds and hysteresis, and —
/// the priority rule — the highest drop level this signal alone may
/// demand.
#[derive(Clone, Debug)]
pub struct SignalRule {
    /// The reading name this rule matches.
    pub reading: String,
    /// Raise the signal's level when a reading is at or above this value.
    pub raise_at: f64,
    /// Count a reading at or below this value as a calm window.
    pub lower_at: f64,
    /// The highest drop level this signal may demand on its own — the
    /// priority rule: primary signals get the full range, secondary
    /// signals are capped so they can nudge but never starve the stream
    /// by themselves.
    pub max_level: u8,
    /// Consecutive calm windows required before lowering.
    pub patience: u32,
}

impl SignalRule {
    /// A rule with the defaults tuned for a 0..1 pressured fraction such
    /// as [`readings::SEND_SATURATION`](crate::readings::SEND_SATURATION):
    /// raise when half a window is pressured (0.5), count only fully calm
    /// windows (0.0) towards recovery, full range (max level 2),
    /// patience 3.
    #[must_use]
    pub fn new(reading: impl Into<String>) -> SignalRule {
        SignalRule {
            reading: reading.into(),
            raise_at: 0.5,
            lower_at: 0.0,
            max_level: 2,
            patience: 3,
        }
    }

    /// Overrides the raise threshold.
    #[must_use]
    pub fn raising_at(mut self, raise_at: f64) -> SignalRule {
        self.raise_at = raise_at;
        self
    }

    /// Overrides the calm threshold.
    #[must_use]
    pub fn lowering_at(mut self, lower_at: f64) -> SignalRule {
        self.lower_at = lower_at;
        self
    }

    /// Caps the level this signal may demand (the priority rule).
    #[must_use]
    pub fn capped(mut self, max_level: u8) -> SignalRule {
        self.max_level = max_level;
        self
    }

    /// Overrides the recovery patience.
    #[must_use]
    pub fn with_patience(mut self, patience: u32) -> SignalRule {
        self.patience = patience;
        self
    }
}

struct SignalState {
    rule: SignalRule,
    level: u8,
    calm_windows: u32,
}

impl SignalState {
    /// Per-signal hysteresis: a pressured window raises at once, only
    /// `patience` consecutive calm windows lower, and a window in between
    /// resets the calm count without raising.
    fn observe(&mut self, value: f64) {
        if value >= self.rule.raise_at {
            self.calm_windows = 0;
            if self.level < self.rule.max_level {
                self.level += 1;
            }
        } else if value <= self.rule.lower_at && self.level > 0 {
            self.calm_windows += 1;
            if self.calm_windows >= self.rule.patience {
                self.calm_windows = 0;
                self.level -= 1;
            }
        } else {
            self.calm_windows = 0;
        }
    }
}

/// The congestion policy: one drop level steered by any number of
/// pressure signals — send-side saturation, receive-side memory
/// pressure — so no two policies fight over the same actuator.
///
/// This is the complement of [`DropLevelController`]: that one senses the
/// *receive* rate on the far side of the congested link (a
/// round-trip-delayed signal), while this one reacts where congestion
/// first becomes visible — the transport refusing or shedding frames at
/// the send end. The two compose: run both and the drop level follows
/// whichever trips first. With a single [`SignalRule`] it is a plain
/// threshold controller with hysteresis on that one reading.
///
/// Every [`SignalRule`] keeps its own level with its own hysteresis; the
/// announced drop level is the **maximum** over the signals. Two priority
/// rules fall out of that shape:
///
/// * a signal's [`SignalRule::max_level`] caps how far it can push alone
///   (in [`standard`](UnifiedCongestionController::standard), receive-side
///   signals stop at level 1; only send saturation reaches level 2), and
/// * recovery follows the *slowest pressured* signal — a calm primary
///   cannot lower the level while a capped secondary still holds it up.
///
/// A command is emitted only when the announced maximum changes, so
/// several signals agreeing on the same level do not spam the actuator.
///
/// Feed it from one [`RegistrySensor`](crate::RegistrySensor) polling the
/// process [`StatsRegistry`](infopipes::StatsRegistry), and the whole
/// loop is: registry → sensor → this controller → `SetDropLevel`.
pub struct UnifiedCongestionController {
    signals: Vec<SignalState>,
    announced: u8,
}

impl UnifiedCongestionController {
    /// A controller with no signals (add them with
    /// [`with_signal`](UnifiedCongestionController::with_signal)).
    #[must_use]
    pub fn new() -> UnifiedCongestionController {
        UnifiedCongestionController {
            signals: Vec::new(),
            announced: 0,
        }
    }

    /// Adds one signal rule.
    #[must_use]
    pub fn with_signal(mut self, rule: SignalRule) -> UnifiedCongestionController {
        self.signals.push(SignalState {
            rule,
            level: 0,
            calm_windows: 0,
        });
        self
    }

    /// The standard manifold policy over the canonical readings:
    ///
    /// * [`readings::SEND_SATURATION`](crate::readings::SEND_SATURATION) — primary, full range (level 2),
    /// * [`readings::POOL_MISS`](crate::readings::POOL_MISS) — secondary, capped at level 1, raising
    ///   when half the acquisitions miss,
    /// * [`readings::UDP_RX_SHED`](crate::readings::UDP_RX_SHED) — secondary, capped at level 1,
    ///   raising on any shed activity in a window (feed it a per-window
    ///   delta, not the cumulative count).
    #[must_use]
    pub fn standard() -> UnifiedCongestionController {
        UnifiedCongestionController::new()
            .with_signal(SignalRule::new(crate::readings::SEND_SATURATION))
            .with_signal(SignalRule::new(crate::readings::POOL_MISS).capped(1))
            .with_signal(
                SignalRule::new(crate::readings::UDP_RX_SHED)
                    .raising_at(1.0)
                    .capped(1),
            )
    }

    /// The currently announced drop level (the max over signals).
    #[must_use]
    pub fn level(&self) -> u8 {
        self.announced
    }

    /// The named signal's own level, for introspection.
    #[must_use]
    pub fn signal_level(&self, reading: &str) -> Option<u8> {
        self.signals
            .iter()
            .find(|s| s.rule.reading == reading)
            .map(|s| s.level)
    }
}

impl Default for UnifiedCongestionController {
    fn default() -> Self {
        UnifiedCongestionController::new()
    }
}

impl Controller for UnifiedCongestionController {
    fn observe(&mut self, reading: &SensorReading) -> Option<ControlEvent> {
        let signal = self
            .signals
            .iter_mut()
            .find(|s| s.rule.reading == reading.name)?;
        signal.observe(reading.value);
        let level = self.signals.iter().map(|s| s.level).max().unwrap_or(0);
        if level != self.announced {
            self.announced = level;
            return Some(ControlEvent::SetDropLevel(level));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readings;

    fn reading(name: &str, value: f64) -> SensorReading {
        SensorReading {
            name: name.into(),
            value,
        }
    }

    #[test]
    fn drop_controller_escalates_under_congestion() {
        let mut c = DropLevelController::new(readings::RECV_RATE_HZ, 30.0);
        // Delivery collapses to 10 Hz: raise to level 1.
        assert_eq!(
            c.observe(&reading(readings::RECV_RATE_HZ, 10.0)),
            Some(ControlEvent::SetDropLevel(1))
        );
        // At level 1 we expect ~10 Hz; 9.9 Hz is within band: no change.
        assert_eq!(c.observe(&reading(readings::RECV_RATE_HZ, 9.9)), None);
        // Still worse: raise to level 2.
        assert_eq!(
            c.observe(&reading(readings::RECV_RATE_HZ, 5.0)),
            Some(ControlEvent::SetDropLevel(2))
        );
        // Max level: no further escalation.
        assert_eq!(c.observe(&reading(readings::RECV_RATE_HZ, 1.0)), None);
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn drop_controller_recovers_with_hysteresis() {
        let mut c = DropLevelController::new(readings::RECV_RATE_HZ, 30.0);
        let _ = c.observe(&reading(readings::RECV_RATE_HZ, 10.0)); // -> level 1
                                                                   // Expected at level 1 is ~10.2 Hz; sustained full delivery should
                                                                   // lower the level, but only after `patience` good windows.
        assert_eq!(c.observe(&reading(readings::RECV_RATE_HZ, 10.2)), None);
        assert_eq!(c.observe(&reading(readings::RECV_RATE_HZ, 10.2)), None);
        assert_eq!(
            c.observe(&reading(readings::RECV_RATE_HZ, 10.2)),
            Some(ControlEvent::SetDropLevel(0))
        );
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn drop_controller_ignores_other_readings() {
        let mut c = DropLevelController::new(readings::RECV_RATE_HZ, 30.0);
        assert_eq!(c.observe(&reading("unrelated", 0.0)), None);
    }

    #[test]
    fn congestion_controller_reacts_to_send_side_backpressure() {
        let mut c = UnifiedCongestionController::new()
            .with_signal(SignalRule::new(readings::SEND_SATURATION));
        // Calm link: nothing to do.
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.0)), None);
        // Half the window saturated: raise.
        assert_eq!(
            c.observe(&reading(readings::SEND_SATURATION, 0.5)),
            Some(ControlEvent::SetDropLevel(1))
        );
        // Still saturated: raise to the cap and stay there.
        assert_eq!(
            c.observe(&reading(readings::SEND_SATURATION, 1.0)),
            Some(ControlEvent::SetDropLevel(2))
        );
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 1.0)), None);
        assert_eq!(c.level(), 2);
        // Recovery needs `patience` fully calm windows; a mildly
        // pressured window resets the count without raising.
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.0)), None);
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.2)), None);
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.0)), None);
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.0)), None);
        assert_eq!(
            c.observe(&reading(readings::SEND_SATURATION, 0.0)),
            Some(ControlEvent::SetDropLevel(1))
        );
        // Other readings are ignored.
        assert_eq!(c.observe(&reading(readings::RECV_RATE_HZ, 0.9)), None);
    }

    #[test]
    fn unified_controller_takes_the_max_over_signals() {
        let mut c = UnifiedCongestionController::standard();
        // Memory pressure alone: capped at level 1.
        assert_eq!(
            c.observe(&reading(readings::POOL_MISS, 0.9)),
            Some(ControlEvent::SetDropLevel(1))
        );
        assert_eq!(c.observe(&reading(readings::POOL_MISS, 0.9)), None);
        assert_eq!(c.level(), 1);
        // The primary signal escalates past the cap.
        assert_eq!(c.observe(&reading(readings::SEND_SATURATION, 0.8)), None);
        assert_eq!(
            c.observe(&reading(readings::SEND_SATURATION, 0.8)),
            Some(ControlEvent::SetDropLevel(2))
        );
        assert_eq!(c.level(), 2);
        assert_eq!(c.signal_level(readings::SEND_SATURATION), Some(2));
        assert_eq!(c.signal_level(readings::POOL_MISS), Some(1));
        // Unknown readings are ignored.
        assert_eq!(c.observe(&reading("unrelated", 99.0)), None);
    }

    #[test]
    fn unified_recovery_follows_the_slowest_signal() {
        let mut c = UnifiedCongestionController::new()
            .with_signal(SignalRule::new("a").with_patience(1))
            .with_signal(SignalRule::new("b").with_patience(1).capped(1));
        assert_eq!(
            c.observe(&reading("a", 1.0)),
            Some(ControlEvent::SetDropLevel(1))
        );
        assert_eq!(c.observe(&reading("b", 1.0)), None, "same max: no spam");
        // `a` goes calm, but `b` still holds the level up.
        assert_eq!(c.observe(&reading("a", 0.0)), None);
        assert_eq!(c.level(), 1);
        // Only when `b` recovers too does the announced level fall.
        assert_eq!(
            c.observe(&reading("b", 0.0)),
            Some(ControlEvent::SetDropLevel(0))
        );
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn unified_shed_rule_wants_deltas() {
        // The standard rx-shed rule raises on any per-window shed
        // activity (>= 1.0) and recovers over quiet windows.
        let mut c = UnifiedCongestionController::standard();
        assert_eq!(c.observe(&reading(readings::UDP_RX_SHED, 0.0)), None);
        assert_eq!(
            c.observe(&reading(readings::UDP_RX_SHED, 4.0)),
            Some(ControlEvent::SetDropLevel(1))
        );
        for _ in 0..2 {
            assert_eq!(c.observe(&reading(readings::UDP_RX_SHED, 0.0)), None);
        }
        assert_eq!(
            c.observe(&reading(readings::UDP_RX_SHED, 0.0)),
            Some(ControlEvent::SetDropLevel(0))
        );
    }

    #[test]
    fn closure_controllers_work() {
        let mut c = |r: &SensorReading| (r.value > 1.0).then_some(ControlEvent::SetDropLevel(1));
        assert_eq!(
            Controller::observe(&mut c, &reading("x", 2.0)),
            Some(ControlEvent::SetDropLevel(1))
        );
        assert_eq!(Controller::observe(&mut c, &reading("x", 0.5)), None);
    }
}
