//! The pure math behind every reported number: percentiles, and medians
//! of windows and of repeats.

/// The `p`-th percentile (0..=100) of `sorted` by nearest rank: the
/// smallest sample with at least `p` % of the samples at or below it.
/// Nearest rank never invents a value between two samples, so a tail
/// percentile is always a latency some item really saw.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Splits `samples` (in arrival order) into `windows` equal runs, takes
/// each run's median, and returns the median of those. A stall that
/// poisons one window moves one of the inner medians, not the result.
/// Fewer samples than windows degrade to the plain median.
pub fn median_of_windows(samples: &[f64], windows: usize) -> f64 {
    let per = samples.len() / windows.max(1);
    if per == 0 {
        return median(samples);
    }
    let medians: Vec<f64> = samples.chunks(per).take(windows).map(median).collect();
    median(&medians)
}

/// One value over the measured repeats of a run: the median is what is
/// reported, the extremes are printed beside it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// # Panics
///
/// Panics if `repeats` is empty.
pub fn summarize(repeats: &[f64]) -> Summary {
    let fold = |init: f64, f: fn(f64, f64) -> f64| repeats.iter().copied().fold(init, f);
    Summary {
        median: median(repeats),
        min: fold(f64::INFINITY, f64::min),
        max: fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 99 % of four samples needs all four.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn one_poisoned_window_does_not_move_the_result() {
        let mut samples = vec![10.0; 100];
        // A stall at the start: the whole first window reads 1000.
        for s in samples.iter_mut().take(10) {
            *s = 1000.0;
        }
        assert_eq!(median_of_windows(&samples, 10), 10.0);
        // Arrival order matters: windows are runs, not a global sort.
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(median_of_windows(&ramp, 10), 49.5);
        // Too few samples: plain median.
        assert_eq!(median_of_windows(&[1.0, 9.0, 5.0], 10), 5.0);
    }

    #[test]
    fn repeats_summarize_to_their_median() {
        let s = summarize(&[5.0, 1.0, 9.0, 4.0, 6.0, 7.0, 2.0, 8.0]);
        assert_eq!((s.median, s.min, s.max), (5.5, 1.0, 9.0));
        // One repeat hit by a stall moves an extreme, not the median.
        let s = summarize(&[4.0, 4.1, 0.5, 4.2, 4.1]);
        assert_eq!((s.median, s.min), (4.1, 0.5));
        assert_eq!(summarize(&[3.0]).median, 3.0);
    }
}
