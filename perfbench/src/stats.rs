//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the full
//! list of per-op samples, never from the `obs` log-linear histograms,
//! whose top bucket clamps at 900 ms and would hide a multi-second tail.

/// Raw samples of one quantity, in milliseconds or any other unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `p`-th percentile (0 < `p` ≤ 100): the smallest
    /// sample with at least `p` percent of the samples at or below it.
    /// Always one of the recorded samples. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        Some(self.values[nearest_rank(n, p) - 1])
    }

    /// The median (nearest-rank 50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // Multiply before dividing and shave float noise, so p = 90 over 100
    // samples is rank 90 exactly.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Samples needed so that at least `k` lie beyond the `p`-th percentile.
pub fn samples_for_tail(p: f64, k: usize) -> usize {
    let mut n = k + 1;
    while beyond(n, p) < k {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_are_recorded_samples() {
        let mut s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.percentile(1.0), Some(1.0));
        assert_eq!(s.percentile(80.0), Some(4.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn tail_above_the_histogram_clamp_is_kept_exactly() {
        // Ninety fast ops and ten slow ones, the slowest at 3.3 s: an obs
        // histogram would report every slow op as its 900 ms top bucket.
        let mut s = Samples::new();
        for i in 0..90 {
            s.push(1.0 + f64::from(i) * 0.01);
        }
        for i in 0..10 {
            s.push(1_500.0 + f64::from(i) * 200.0);
        }
        assert_eq!(s.percentile(91.0), Some(1_500.0));
        assert_eq!(s.percentile(100.0), Some(3_300.0));
        assert!(s.percentile(95.0).unwrap() > 900.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(samples_for_tail(90.0, 10), 100);
        assert_eq!(samples_for_tail(99.0, 10), 1000);
        assert_eq!(beyond(0, 50.0), 0);
    }
}
