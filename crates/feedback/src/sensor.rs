//! Sensors: components that measure a flow and report readings as custom
//! control events.

use infopipes::{ControlEvent, Function, Item, Stage, StatsRegistry};
use std::fmt;

/// A named scalar measurement, as carried by a
/// [`ControlEvent::Custom`] event.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorReading {
    /// The reading's name (e.g. `crate::readings::RECV_RATE_HZ`).
    pub name: String,
    /// The measured value.
    pub value: f64,
}

impl SensorReading {
    /// Parses a reading out of a control event, if it is a custom event.
    #[must_use]
    pub fn from_event(event: &ControlEvent) -> Option<SensorReading> {
        match event {
            ControlEvent::Custom { name, value } => Some(SensorReading {
                name: name.to_string(),
                value: *value,
            }),
            _ => None,
        }
    }

    /// The control event broadcasting this reading.
    #[must_use]
    pub fn to_event(&self) -> ControlEvent {
        ControlEvent::custom(&self.name, self.value)
    }
}

impl fmt::Display for SensorReading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

/// A pass-through sensor measuring the *rate* of items flowing by: every
/// `report_every` items it broadcasts a `recv-rate-hz` reading computed
/// over that window. Function style: zero-cost placement anywhere in a
/// pipeline (the paper's consumer-side sensor of Fig. 1).
pub struct RateSensor {
    name: String,
    report_every: u64,
    seen: u64,
    window_start_us: Option<u64>,
    pending_report: Option<f64>,
    /// Total items observed.
    pub total: u64,
}

impl RateSensor {
    /// Creates a rate sensor reporting under the given reading name.
    ///
    /// # Panics
    ///
    /// Panics if `report_every` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, report_every: u64) -> RateSensor {
        assert!(report_every > 0, "report_every must be positive");
        RateSensor {
            name: name.into(),
            report_every,
            seen: 0,
            window_start_us: None,
            pending_report: None,
            total: 0,
        }
    }

    /// Observes one item at the given kernel time; returns a rate reading
    /// when a window completes.
    pub fn observe(&mut self, now_us: u64) -> Option<SensorReading> {
        self.total += 1;
        let start = *self.window_start_us.get_or_insert(now_us);
        self.seen += 1;
        if self.seen < self.report_every {
            return None;
        }
        let elapsed_us = now_us.saturating_sub(start).max(1);
        let rate = (self.seen as f64) * 1_000_000.0 / elapsed_us as f64;
        self.seen = 0;
        self.window_start_us = Some(now_us);
        Some(SensorReading {
            name: self.name.clone(),
            value: rate,
        })
    }

    /// Takes a report computed during `convert` (functions have no
    /// broadcast access; the enclosing
    /// [`FeedbackLoop`](crate::FeedbackLoop) or a consumer wrapper
    /// forwards it).
    pub fn take_report(&mut self) -> Option<f64> {
        self.pending_report.take()
    }
}

impl Stage for RateSensor {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Function for RateSensor {
    fn convert(&mut self, item: Item) -> Option<Item> {
        let now_us = item.meta.ts.as_micros();
        if let Some(reading) = self.observe(now_us) {
            self.pending_report = Some(reading.value);
        }
        Some(item)
    }
}

/// How a [`RegistrySensor`] probe turns a metric into a reading value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ProbeMode {
    /// Report the metric's current value.
    Gauge,
    /// Report the increase since the previous sample — turns cumulative
    /// counters (e.g. `rx_shed`) into per-window activity a controller
    /// with a threshold can act on.
    Delta,
}

struct RegistryProbe {
    source: String,
    metric: String,
    reading: String,
    mode: ProbeMode,
    last: Option<f64>,
}

/// One sensor over the process-wide [`StatsRegistry`]: each configured
/// probe maps a `(source, metric)` pair to a named [`SensorReading`], so
/// a single poll fans the registry's signals into one reading stream a
/// controller (e.g.
/// [`UnifiedCongestionController`](crate::UnifiedCongestionController))
/// consumes. The registry is the contract: transports publish their
/// pressure counters there without depending on this crate, and adding a
/// signal to the loop is one more probe.
///
/// Metrics missing from a snapshot (source not yet registered, or
/// unregistered mid-run) are skipped, not reported as zero — a vanished
/// producer must not read as "calm".
pub struct RegistrySensor {
    registry: StatsRegistry,
    probes: Vec<RegistryProbe>,
}

impl RegistrySensor {
    /// Creates a sensor with no probes over `registry`.
    #[must_use]
    pub fn new(registry: &StatsRegistry) -> RegistrySensor {
        RegistrySensor {
            registry: registry.clone(),
            probes: Vec::new(),
        }
    }

    fn probe(
        mut self,
        source: impl Into<String>,
        metric: impl Into<String>,
        reading: impl Into<String>,
        mode: ProbeMode,
    ) -> RegistrySensor {
        self.probes.push(RegistryProbe {
            source: source.into(),
            metric: metric.into(),
            reading: reading.into(),
            mode,
            last: None,
        });
        self
    }

    /// Adds a probe reporting `source`/`metric`'s current value under
    /// `reading`.
    #[must_use]
    pub fn gauge(
        self,
        source: impl Into<String>,
        metric: impl Into<String>,
        reading: impl Into<String>,
    ) -> RegistrySensor {
        self.probe(source, metric, reading, ProbeMode::Gauge)
    }

    /// Adds a probe reporting `source`/`metric`'s increase since the
    /// previous sample under `reading` (the first sample establishes the
    /// baseline and reports the raw value).
    #[must_use]
    pub fn delta(
        self,
        source: impl Into<String>,
        metric: impl Into<String>,
        reading: impl Into<String>,
    ) -> RegistrySensor {
        self.probe(source, metric, reading, ProbeMode::Delta)
    }

    /// Takes one registry snapshot and reports every probe that found
    /// its metric, in probe order.
    pub fn sample(&mut self) -> Vec<SensorReading> {
        let snap = self.registry.snapshot();
        let mut out = Vec::with_capacity(self.probes.len());
        for probe in &mut self.probes {
            let Some(value) = snap.value(&probe.source, &probe.metric) else {
                continue;
            };
            let reported = match probe.mode {
                ProbeMode::Gauge => value,
                ProbeMode::Delta => value - probe.last.unwrap_or(0.0),
            };
            probe.last = Some(value);
            out.push(SensorReading {
                name: probe.reading.clone(),
                value: reported,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sensor_maps_metrics_to_named_readings() {
        use infopipes::Metric;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let registry = StatsRegistry::new();
        let shed = Arc::new(AtomicU64::new(0));
        let probe = Arc::clone(&shed);
        registry.register("downlink", "transport", move || {
            vec![
                Metric::counter("rx_shed", "frames", probe.load(Ordering::Relaxed)),
                Metric::gauge("miss_rate", "fraction", 0.75),
            ]
            .into()
        });
        let mut sensor = RegistrySensor::new(&registry)
            .gauge("downlink", "miss_rate", crate::readings::POOL_MISS)
            .delta("downlink", "rx_shed", crate::readings::UDP_RX_SHED)
            .gauge("ghost", "nothing", "never-reported");

        shed.store(3, Ordering::Relaxed);
        let readings = sensor.sample();
        // The unregistered source is skipped, not reported as zero.
        assert_eq!(readings.len(), 2);
        assert_eq!(readings[0].name, crate::readings::POOL_MISS);
        assert_eq!(readings[0].value, 0.75);
        assert_eq!(readings[1].name, crate::readings::UDP_RX_SHED);
        assert_eq!(readings[1].value, 3.0);

        // The delta probe reports only the new sheds next time.
        shed.store(5, Ordering::Relaxed);
        let readings = sensor.sample();
        assert_eq!(readings[1].value, 2.0);
        // No change: the delta goes calm instead of re-reporting.
        let readings = sensor.sample();
        assert_eq!(readings[1].value, 0.0);
    }

    #[test]
    fn reading_round_trips_through_events() {
        let r = SensorReading {
            name: "fill-level".into(),
            value: 0.75,
        };
        let ev = r.to_event();
        assert_eq!(SensorReading::from_event(&ev), Some(r));
        assert_eq!(SensorReading::from_event(&ControlEvent::Start), None);
    }

    #[test]
    fn rate_sensor_reports_per_window() {
        let mut s = RateSensor::new(crate::readings::RECV_RATE_HZ, 5);
        // 5 items 10 ms apart: the first completes a window after 40 ms
        // of elapsed window time (4 intervals observed from the window
        // start).
        let mut out = Vec::new();
        for i in 0..10u64 {
            if let Some(r) = s.observe(i * 10_000) {
                out.push(r.value);
            }
        }
        assert_eq!(out.len(), 2);
        // Window 1: 5 items over 40 ms -> 125 Hz; window 2: 5 items over
        // 50 ms -> 100 Hz.
        assert!((out[0] - 125.0).abs() < 1.0, "{out:?}");
        assert!((out[1] - 100.0).abs() < 1.0, "{out:?}");
        assert_eq!(s.total, 10);
    }

    #[test]
    fn display_is_informative() {
        let r = SensorReading {
            name: "x".into(),
            value: 1.5,
        };
        assert_eq!(r.to_string(), "x = 1.5");
    }
}
