//! The feedback loop component: closes sensor → controller → actuator
//! through the pipeline's event service.

use crate::controller::Controller;
use crate::sensor::{RateSensor, SensorReading};
use infopipes::{ControlEvent, EventCtx, Item, Stage, StageCtx};
use parking_lot::Mutex;
use std::sync::Arc;
use typespec::Typespec;

/// Counters kept by a [`FeedbackLoop`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Readings observed.
    pub readings: u64,
    /// Actuator commands emitted.
    pub commands: u64,
}

/// A pass-through pipeline component hosting a feedback loop.
///
/// Placed anywhere in a pipeline (consumer style, forwarding items
/// untouched), it measures the through-rate with an embedded
/// [`RateSensor`], feeds the readings — and any custom sensor events
/// arriving from elsewhere — to its [`Controller`], and broadcasts the
/// controller's commands. In the Fig. 1 pipeline it sits on the consumer
/// side while its commands steer the producer-side drop filter across the
/// netpipe.
pub struct FeedbackLoop<C> {
    name: String,
    sensor: Option<RateSensor>,
    controller: C,
    stats: Arc<Mutex<LoopStats>>,
}

impl<C: Controller> FeedbackLoop<C> {
    /// A loop fed by an embedded rate sensor reporting every
    /// `report_every` items under `reading_name`.
    #[must_use]
    pub fn with_rate_sensor(
        name: impl Into<String>,
        reading_name: impl Into<String>,
        report_every: u64,
        controller: C,
    ) -> (FeedbackLoop<C>, Arc<Mutex<LoopStats>>) {
        let stats = Arc::new(Mutex::new(LoopStats::default()));
        (
            FeedbackLoop {
                name: name.into(),
                sensor: Some(RateSensor::new(reading_name, report_every)),
                controller,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    /// A loop fed purely by custom control events from remote sensors.
    #[must_use]
    pub fn event_driven(
        name: impl Into<String>,
        controller: C,
    ) -> (FeedbackLoop<C>, Arc<Mutex<LoopStats>>) {
        let stats = Arc::new(Mutex::new(LoopStats::default()));
        (
            FeedbackLoop {
                name: name.into(),
                sensor: None,
                controller,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    fn feed(&mut self, reading: &SensorReading) -> Option<ControlEvent> {
        let mut stats = self.stats.lock();
        stats.readings += 1;
        let cmd = self.controller.observe(reading);
        if cmd.is_some() {
            stats.commands += 1;
        }
        cmd
    }
}

impl<C: Controller> Stage for FeedbackLoop<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::new()
    }

    fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        if let Some(reading) = SensorReading::from_event(event) {
            if let Some(cmd) = self.feed(&reading) {
                ctx.broadcast(&cmd);
            }
        }
    }
}

impl<C: Controller> infopipes::Consumer for FeedbackLoop<C> {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        if let Some(sensor) = self.sensor.as_mut() {
            let now_us = ctx.now().as_micros();
            if let Some(reading) = sensor.observe(now_us) {
                if let Some(cmd) = self.feed(&reading) {
                    ctx.broadcast(&cmd);
                }
            }
        }
        ctx.put(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infopipes::helpers::{CollectSink, IterSource};
    use infopipes::{ClockedPump, Pipeline};
    use mbthread::{Kernel, KernelConfig};

    #[test]
    fn rate_sensor_loop_emits_commands_through_the_pipeline() {
        let kernel = Kernel::new(KernelConfig::virtual_time());
        {
            let pipeline = Pipeline::new(&kernel, "loop");
            let src = pipeline.add_producer("src", IterSource::new("src", 0u32..30));
            // 10 Hz flow but the controller expects 100 Hz: it should
            // escalate the drop level.
            let pump = pipeline.add_pump("pump", ClockedPump::hz(10.0));
            let controller = crate::DropLevelController::new(crate::readings::RECV_RATE_HZ, 100.0);
            let (fb, stats) =
                FeedbackLoop::with_rate_sensor("fb", crate::readings::RECV_RATE_HZ, 5, controller);
            let fb = pipeline.add_consumer("fb", fb);
            let (sink, _out) = CollectSink::<u32>::new("sink");
            let sink = pipeline.add_consumer("sink", sink);
            let _ = src >> pump >> fb >> sink;
            let running = pipeline.start().unwrap();
            let sub = running.subscribe();
            running.start_flow().unwrap();
            running.wait_quiescent();
            let s = *stats.lock();
            assert!(s.readings >= 5, "{s:?}");
            assert!(s.commands >= 1, "{s:?}");
            // The SetDropLevel command reached external subscribers too.
            let mut saw_cmd = false;
            while let Some(ev) = sub.recv_timeout(std::time::Duration::from_millis(50)) {
                if matches!(ev, ControlEvent::SetDropLevel(_)) {
                    saw_cmd = true;
                    break;
                }
            }
            assert!(saw_cmd);
        }
        kernel.shutdown();
    }

    #[test]
    fn event_driven_loop_reacts_to_remote_readings() {
        const FILL_LEVEL: &str = "fill-level";
        let controller = move |r: &SensorReading| {
            (r.name == FILL_LEVEL && r.value > 0.9).then_some(ControlEvent::SetRate(60.0))
        };
        let (mut fb, stats) = FeedbackLoop::event_driven("fb", controller);
        // Feed readings directly (unit level).
        assert_eq!(
            fb.feed(&SensorReading {
                name: FILL_LEVEL.into(),
                value: 0.95
            }),
            Some(ControlEvent::SetRate(60.0))
        );
        assert_eq!(
            fb.feed(&SensorReading {
                name: FILL_LEVEL.into(),
                value: 0.2
            }),
            None
        );
        let s = *stats.lock();
        assert_eq!(s.readings, 2);
        assert_eq!(s.commands, 1);
    }
}
