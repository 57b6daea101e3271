//! Summary statistics and histograms used by the evaluation harness.

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolation percentile, `p ∈ [0, 100]`. Returns `None` for empty input.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Some(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// A fixed-width histogram over `[lo, hi)` with values outside clamped into the end bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let idx = ((x - self.lo) / width).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] += 1;
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin counts normalised to proportions (summing to 1 when non-empty).
    pub fn proportions(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Midpoint of each bin, useful as plot x-coordinates.
    pub fn bin_centers(&self) -> Vec<f64> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        (0..bins)
            .map(|i| self.lo + (i as f64 + 0.5) * width)
            .collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_and_is_zero_when_empty() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn histogram_counts_and_proportions() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.5, 1.5, 2.5, 2.6, 9.9, 10.5, -1.0]);
        assert_eq!(h.counts(), &[3, 2, 0, 0, 2]);
        assert_eq!(h.total(), 7);
        let p = h.proportions();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(h.bin_centers(), vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn empty_histogram_proportions_are_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.proportions(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
