//! Timing statistics shared by the measuring sinks.

use std::fmt;

/// Accumulates arrival timestamps and computes rate/jitter summaries.
#[derive(Clone, Debug, Default)]
pub struct TimingStats {
    arrivals_us: Vec<u64>,
}

impl TimingStats {
    /// Records one arrival at the given kernel time (microseconds).
    pub fn record(&mut self, at_us: u64) {
        self.arrivals_us.push(at_us);
    }

    /// Number of recorded arrivals.
    #[must_use]
    pub fn count(&self) -> usize {
        self.arrivals_us.len()
    }

    /// Inter-arrival intervals in microseconds.
    fn intervals_us(&self) -> Vec<u64> {
        self.arrivals_us.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Mean inter-arrival interval (microseconds); `None` with fewer than
    /// two arrivals.
    fn mean_interval_us(&self) -> Option<f64> {
        let iv = self.intervals_us();
        if iv.is_empty() {
            return None;
        }
        Some(iv.iter().sum::<u64>() as f64 / iv.len() as f64)
    }

    /// Jitter: the mean absolute deviation of inter-arrival intervals from
    /// their mean, in microseconds (the paper's buffers exist to "remove
    /// rate fluctuations" — this is the number they reduce).
    #[must_use]
    pub fn jitter_us(&self) -> Option<f64> {
        let iv = self.intervals_us();
        let mean = self.mean_interval_us()?;
        Some(iv.iter().map(|&d| (d as f64 - mean).abs()).sum::<f64>() / iv.len() as f64)
    }
}

impl fmt::Display for TimingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean_interval_us(), self.jitter_us()) {
            (Some(mean), Some(jit)) => write!(
                f,
                "{} arrivals, mean interval {:.1} us, jitter {:.1} us",
                self.count(),
                mean,
                jit
            ),
            _ => write!(f, "{} arrivals", self.count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_paced_arrivals_have_zero_jitter() {
        let mut t = TimingStats::default();
        for i in 0..10u64 {
            t.record(i * 1000);
        }
        assert_eq!(t.count(), 10);
        assert_eq!(t.mean_interval_us(), Some(1000.0));
        assert_eq!(t.jitter_us(), Some(0.0));
    }

    #[test]
    fn bursty_arrivals_show_jitter() {
        let mut t = TimingStats::default();
        for at in [0u64, 100, 1900, 2000, 3900] {
            t.record(at);
        }
        let j = t.jitter_us().unwrap();
        assert!(j > 500.0, "jitter {j}");
    }

    #[test]
    fn degenerate_cases_are_none() {
        let mut t = TimingStats::default();
        assert_eq!(t.mean_interval_us(), None);
        assert_eq!(t.jitter_us(), None);
        t.record(5);
        assert_eq!(t.jitter_us(), None);
        assert!(!t.to_string().is_empty());
    }
}
