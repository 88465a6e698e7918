//! Feedback toolkit for adaptation control (§2.1, ref \[7\] of the paper).
//!
//! Pipelines adapt by closing loops between **sensors** (components that
//! measure the flow), **controllers** (policies that map measurements to
//! knob settings), and **actuators** (the knobs: drop-filter levels, pump
//! rates). Sensor readings and actuator commands travel as control events
//! through the pipeline's event service, so a loop can close across a
//! netpipe exactly like the producer-side dropping of Fig. 1.

#![warn(missing_docs)]

mod controller;
mod loopctl;
pub mod readings;
mod sensor;
mod session;

pub use controller::{Controller, DropLevelController, SignalRule, UnifiedCongestionController};
pub use loopctl::{FeedbackLoop, LoopStats};
pub use sensor::{RegistrySensor, SensorReading};
pub use session::SessionControllerBank;
