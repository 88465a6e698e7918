//! Per-session controller banks for serving tiers.
//!
//! A broadcast fan-out (netpipe's `SessionRegistry`) produces one
//! congestion reading stream *per session*; degrading all clients
//! because one is slow would defeat the point of per-session queues. A
//! [`SessionControllerBank`] keeps an independent [`Controller`] per
//! session key, created on first reading by a factory closure, so each
//! client gets its own hysteresis state and drop level.
//!
//! The bank is deliberately transport-agnostic: session keys are plain
//! `u64`s and commands come back as `(key, ControlEvent)` pairs for the
//! caller to apply (e.g. `ControlEvent::SetDropLevel` →
//! `SessionRegistry::set_drop_level`). The feedback crate stays free of
//! any netpipe dependency.

use crate::controller::Controller;
use crate::sensor::SensorReading;
use infopipes::ControlEvent;
use std::collections::HashMap;

/// An independent [`Controller`] per session, built on demand.
///
/// ```
/// use feedback::{readings, SessionControllerBank, SignalRule, UnifiedCongestionController};
/// use infopipes::ControlEvent;
///
/// let mut bank = SessionControllerBank::new(|_id| {
///     UnifiedCongestionController::new().with_signal(SignalRule::new(readings::SEND_SATURATION))
/// });
/// // Session 7 saturates; session 9 is calm. Only 7 is told to thin.
/// let cmds = bank.observe_values(readings::SEND_SATURATION, [(7, 0.8), (9, 0.0)]);
/// assert_eq!(cmds, vec![(7, ControlEvent::SetDropLevel(1))]);
/// ```
pub struct SessionControllerBank<C: Controller> {
    make: Box<dyn FnMut(u64) -> C + Send>,
    controllers: HashMap<u64, C>,
}

impl<C: Controller> SessionControllerBank<C> {
    /// Creates a bank whose per-session controllers come from `make`
    /// (called once per new session key, with the key).
    pub fn new(make: impl FnMut(u64) -> C + Send + 'static) -> SessionControllerBank<C> {
        SessionControllerBank {
            make: Box::new(make),
            controllers: HashMap::new(),
        }
    }

    /// Routes one reading to the session's controller (creating it on
    /// first contact); returns the command the policy wants applied to
    /// that session, if any.
    pub fn observe(&mut self, session: u64, reading: &SensorReading) -> Option<ControlEvent> {
        let controller = self
            .controllers
            .entry(session)
            .or_insert_with(|| (self.make)(session));
        controller.observe(reading)
    }

    /// Routes a batch of `(session, value)` samples sharing one reading
    /// name — the shape a serving tier's `take_readings()` drain has —
    /// and collects the resulting `(session, command)` pairs in order.
    pub fn observe_values(
        &mut self,
        reading_name: &str,
        samples: impl IntoIterator<Item = (u64, f64)>,
    ) -> Vec<(u64, ControlEvent)> {
        let mut commands = Vec::new();
        for (session, value) in samples {
            let reading = SensorReading {
                name: reading_name.to_owned(),
                value,
            };
            if let Some(cmd) = self.observe(session, &reading) {
                commands.push((session, cmd));
            }
        }
        commands
    }

    /// Drops a session's controller (call when the session is evicted —
    /// otherwise the bank grows with every client that ever connected).
    pub fn forget(&mut self, session: u64) {
        self.controllers.remove(&session);
    }

    /// Retains only the sessions `keep` approves of (bulk companion to
    /// [`forget`](SessionControllerBank::forget), for reconciling against
    /// a registry roster).
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.controllers.retain(|&id, _| keep(id));
    }

    /// Read access to one session's controller, if it exists.
    #[must_use]
    pub fn controller(&self, session: u64) -> Option<&C> {
        self.controllers.get(&session)
    }

    /// How many sessions currently have controllers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.controllers.len()
    }

    /// Whether the bank is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.controllers.is_empty()
    }
}

impl<C: Controller> std::fmt::Debug for SessionControllerBank<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionControllerBank")
            .field("sessions", &self.controllers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{SignalRule, UnifiedCongestionController};
    use crate::readings;

    fn saturation_controller(_session: u64) -> UnifiedCongestionController {
        UnifiedCongestionController::new().with_signal(SignalRule::new(readings::SEND_SATURATION))
    }

    #[test]
    fn sessions_escalate_independently() {
        let mut bank = SessionControllerBank::new(saturation_controller);
        // Session 1 saturates twice: walks to level 2. Session 2 stays calm.
        let cmds = bank.observe_values(readings::SEND_SATURATION, [(1, 0.9), (2, 0.0), (1, 0.9)]);
        assert_eq!(
            cmds,
            vec![
                (1, ControlEvent::SetDropLevel(1)),
                (1, ControlEvent::SetDropLevel(2)),
            ]
        );
        assert_eq!(
            bank.controller(1).map(UnifiedCongestionController::level),
            Some(2)
        );
        assert_eq!(
            bank.controller(2).map(UnifiedCongestionController::level),
            Some(0)
        );
    }

    #[test]
    fn forget_resets_a_session() {
        let mut bank = SessionControllerBank::new(saturation_controller);
        let _ = bank.observe_values(readings::SEND_SATURATION, [(1, 0.9)]);
        assert_eq!(bank.len(), 1);
        bank.forget(1);
        assert!(bank.is_empty());
        // A fresh controller starts over at level 0 → first saturated
        // window commands level 1 again.
        let cmds = bank.observe_values(readings::SEND_SATURATION, [(1, 0.9)]);
        assert_eq!(cmds, vec![(1, ControlEvent::SetDropLevel(1))]);
    }

    #[test]
    fn retain_reconciles_against_a_roster() {
        let mut bank = SessionControllerBank::new(saturation_controller);
        let _ = bank.observe_values(readings::SEND_SATURATION, [(1, 0.9), (2, 0.9), (3, 0.9)]);
        bank.retain(|id| id == 2);
        assert_eq!(bank.len(), 1);
        assert!(bank.controller(2).is_some());
    }

    #[test]
    fn factory_sees_the_session_key() {
        let mut bank = SessionControllerBank::new(|id| {
            move |r: &SensorReading| {
                (r.value > 0.5).then_some(ControlEvent::custom("seen", id as f64))
            }
        });
        let cmds = bank.observe_values("x", [(42, 1.0)]);
        assert_eq!(cmds, vec![(42, ControlEvent::custom("seen", 42.0))]);
    }
}
