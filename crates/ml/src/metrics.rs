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

/// A confusion matrix for `classes` classes, stored as one flat `classes²` count buffer
/// (row-major by target) — a single allocation instead of one `Vec` per class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of samples with true class `target` predicted as `prediction`.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn get(&self, target: usize, prediction: usize) -> usize {
        assert!(
            target < self.classes && prediction < self.classes,
            "label out of range"
        );
        self.counts[target * self.classes + prediction]
    }

    /// The prediction counts for one true class.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn row(&self, target: usize) -> &[usize] {
        &self.counts[target * self.classes..(target + 1) * self.classes]
    }
}

/// Confusion matrix counting `(target, prediction)` pairs for `num_classes` classes.
///
/// # Panics
///
/// Panics if the slices have different lengths or any label is out of range.
pub fn confusion_matrix(
    predictions: &[usize],
    targets: &[usize],
    num_classes: usize,
) -> ConfusionMatrix {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    let mut counts = vec![0usize; num_classes * num_classes];
    for (&p, &t) in predictions.iter().zip(targets) {
        assert!(p < num_classes && t < num_classes, "label out of range");
        counts[t * num_classes + p] += 1;
    }
    ConfusionMatrix {
        classes: num_classes,
        counts,
    }
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

    #[test]
    fn confusion_matrix_counts_by_target_then_prediction() {
        let m = confusion_matrix(&[0, 1, 1, 2], &[0, 1, 2, 2], 3);
        assert_eq!(m.classes(), 3);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 1), 1);
        assert_eq!(m.get(2, 1), 1);
        assert_eq!(m.get(2, 2), 1);
        assert_eq!(m.get(0, 1), 0);
        assert_eq!(m.row(2), &[0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn confusion_matrix_accessor_rejects_bad_labels() {
        let m = confusion_matrix(&[0], &[0], 2);
        let _ = m.get(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn confusion_matrix_rejects_bad_labels() {
        let _ = confusion_matrix(&[0, 4], &[0, 1], 3);
    }
}
