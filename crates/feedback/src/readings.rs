//! Canonical reading names.
//!
//! Sensor readings travel as named [`ControlEvent::Custom`] events, and
//! controllers match on the name — so a drifted string literal silently
//! severs a feedback loop. This module is the single home of the names
//! the crates agree on.
//!
//! [`ControlEvent::Custom`]: infopipes::ControlEvent::Custom

/// Send-side saturation fraction (0..1): the share of a
/// `NetSendEnd` window's data sends the link reported `Saturated` or
/// `Dropped`.
pub const SEND_SATURATION: &str = "net-send-saturation";

/// Buffer-pool miss rate (0..1): the fraction of acquisitions that fell
/// back to a fresh allocation — consumers are holding payloads longer
/// than the pool can recycle them.
pub const POOL_MISS: &str = "pool-miss-rate";

/// UDP receive-queue shed count: frames discarded because the bounded
/// receive queue was full. Cumulative; pair with a delta window (e.g.
/// [`RegistrySensor::delta`](crate::RegistrySensor::delta)) when
/// controlling on it.
pub const UDP_RX_SHED: &str = "udp-rx-shed";

/// Consumer-side delivery rate in items per second, as reported by a
/// [`RateSensor`](crate::RateSensor) window.
pub const RECV_RATE_HZ: &str = "recv-rate-hz";

/// Replay lag-behind-schedule in seconds: how far past its recorded
/// virtual timestamp the replayer delivered the most recent frame. Zero
/// under an unloaded virtual-time kernel; a persistently positive value
/// means the replay target cannot keep up with the recorded schedule.
pub const REPLAY_LAG: &str = "replay-lag-sec";
