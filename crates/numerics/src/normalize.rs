//! Min–max normalisation.
//!
//! The walk-through example of Section III-B normalises data size, bandwidth, and payment by
//! min–max normalisation before computing scores. The aggregator applies the same rescaling
//! in the simulator so that heterogeneous resource units are comparable.

/// A min–max normaliser mapping `[min, max]` linearly onto `[0, 1]`.
///
/// Degenerate ranges (`max == min`) map every value to `0.5`, matching the convention that a
/// resource all bidders provide identically carries no ranking information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxNormalizer {
    min: f64,
    max: f64,
}

impl MinMaxNormalizer {
    /// Creates a normaliser for the range `[min, max]`.
    pub fn new(min: f64, max: f64) -> Self {
        Self { min, max }
    }

    /// Maps `x` into `[0, 1]`, clamping values outside of the fitted range.
    pub fn normalize(&self, x: f64) -> f64 {
        if self.max <= self.min {
            return 0.5;
        }
        ((x - self.min) / (self.max - self.min)).clamp(0.0, 1.0)
    }

    /// Maps a normalised value in `[0, 1]` back to the original range.
    pub fn denormalize(&self, y: f64) -> f64 {
        if self.max <= self.min {
            return self.min;
        }
        self.min + y.clamp(0.0, 1.0) * (self.max - self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_into_unit_interval() {
        let n = MinMaxNormalizer::new(1000.0, 5000.0);
        assert_eq!(n.normalize(1000.0), 0.0);
        assert_eq!(n.normalize(5000.0), 1.0);
        assert!((n.normalize(3000.0) - 0.5).abs() < 1e-12);
        // Clamping.
        assert_eq!(n.normalize(0.0), 0.0);
        assert_eq!(n.normalize(9000.0), 1.0);
    }

    #[test]
    fn round_trips_through_denormalize() {
        let n = MinMaxNormalizer::new(5.0, 100.0);
        for x in [5.0, 23.0, 62.5, 100.0] {
            let y = n.normalize(x);
            assert!((n.denormalize(y) - x).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_range_maps_to_half() {
        let n = MinMaxNormalizer::new(3.0, 3.0);
        assert_eq!(n.normalize(3.0), 0.5);
        assert_eq!(n.normalize(7.0), 0.5);
        assert_eq!(n.denormalize(0.9), 3.0);
    }
}
