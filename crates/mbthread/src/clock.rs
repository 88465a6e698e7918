//! Kernel time: a nanosecond counter since kernel start, backed by either
//! the OS monotonic clock or a virtual clock that only advances when the
//! kernel is otherwise idle.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in kernel time, measured in nanoseconds since the kernel epoch
/// (the instant the [`Kernel`](crate::Kernel) was created).
///
/// `Time` is used for timer deadlines, message constraints, and statistics.
/// Under [`ClockMode::Virtual`] it has no relation to wall-clock time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The kernel epoch.
    pub const ZERO: Time = Time(0);

    /// The largest representable time; useful as an "infinitely far"
    /// deadline sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from nanoseconds since the kernel epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Time(nanos)
    }

    /// Creates a time from microseconds since the kernel epoch.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros * 1_000)
    }

    /// Creates a time from milliseconds since the kernel epoch.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * 1_000_000)
    }

    /// Creates a time from seconds since the kernel epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * 1_000_000_000)
    }

    /// Nanoseconds since the kernel epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the kernel epoch.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the kernel epoch.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Adds a duration, saturating at [`Time::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(duration_to_nanos(d)))
    }
}

fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, rhs: Duration) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    /// Returns the duration between two times, saturating to zero if `rhs`
    /// is later than `self`.
    fn sub(self, rhs: Time) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0 / 1_000;
        let frac = self.0 % 1_000;
        write!(f, "t+{us}.{frac:03}us")
    }
}

/// Selects the time source driving the kernel's timers and [`Time`] values.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// Use the OS monotonic clock. Timers fire in real time; this is the
    /// mode used by examples and benchmarks.
    #[default]
    Real,
    /// Use a virtual clock that jumps straight to the next timer deadline
    /// whenever every thread in the kernel is blocked. Pipelines become
    /// deterministic: a clocked pump "running" at 30 Hz executes its ticks
    /// back-to-back with virtual timestamps exactly 1/30 s apart.
    Virtual,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.as_millis(), 5);
        let later = t + Duration::from_micros(250);
        assert_eq!(later.as_nanos(), 5_250_000);
        assert_eq!(later - t, Duration::from_micros(250));
        // Subtraction saturates rather than panicking.
        assert_eq!(t - later, Duration::ZERO);
    }

    #[test]
    fn time_saturates_at_max() {
        let t = Time::MAX.saturating_add(Duration::from_secs(1));
        assert_eq!(t, Time::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Time::from_micros(3)).is_empty());
        assert_eq!(format!("{}", Time::from_nanos(1_500)), "t+1.500us");
    }

    #[test]
    fn ordering_follows_nanos() {
        assert!(Time::from_nanos(1) < Time::from_nanos(2));
        assert!(Time::ZERO < Time::MAX);
    }
}
