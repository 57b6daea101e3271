//! Evaluation metrics.

/// Classification accuracy: the fraction of predictions equal to the targets.
///
/// Returns `0.0` for empty input.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(predictions: &[usize], targets: &[usize]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| p == t)
        .count();
    correct as f64 / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0, 0], &[1, 1]), 0.0);
        assert_eq!(accuracy(&[5, 5], &[5, 5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[1], &[1, 2]);
    }
}
