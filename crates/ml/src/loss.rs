//! Softmax cross-entropy loss.

use crate::matrix::Matrix;

/// Numerically stable row-wise softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_inplace(&mut out);
    out
}

/// Row-wise softmax applied in place.
fn softmax_inplace(out: &mut Matrix) {
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum.max(1e-300);
        }
    }
}

/// Mean softmax cross-entropy loss and its gradient with respect to the logits: writes the
/// logit gradient into `grad` (reshaped to match `logits`, reusing its buffer; it already
/// includes the `1/batch` factor, so it can be fed straight into the backward pass) and
/// returns the mean loss.
///
/// The probabilities are computed directly inside `grad`, so the hot path needs no
/// intermediate matrix at all.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub(crate) fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    grad: &mut Matrix,
) -> f64 {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "one label per logit row is required"
    );
    grad.copy_from(logits);
    softmax_inplace(grad);
    let batch = logits.rows() as f64;
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < logits.cols(),
            "label {label} out of range for {} classes",
            logits.cols()
        );
        let p = grad.get(r, label).max(1e-12);
        loss -= p.ln();
        grad.set(r, label, grad.get(r, label) - 1.0);
    }
    grad.scale_in_place(1.0 / batch);
    loss / batch
}

/// Index of a row's maximum element; among equal maxima the **last** index wins (matching
/// `Iterator::max_by`), and an empty row yields `0`.
///
/// # Panics
///
/// Panics on a NaN entry — a NaN logit means training diverged, and silently picking an
/// index would fabricate accuracy numbers (the historical `partial_cmp().unwrap()` path
/// panicked here too).
pub(crate) fn row_argmax(row: &[f64]) -> usize {
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    for (j, &v) in row.iter().enumerate() {
        assert!(!v.is_nan(), "NaN logit at column {j} — training diverged");
        if v >= best_value {
            best_value = v;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel with a fresh gradient buffer.
    fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
        let mut grad = Matrix::default();
        let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
        (loss, grad)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax(&logits);
        for r in 0..2 {
            let sum: f64 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let p = softmax(&logits);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!((p.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_vec(1, 3, vec![20.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Matrix::zeros(4, 10);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0_f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn into_form_matches_an_independent_loop_and_reshapes_a_stale_buffer() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.1, 0.5, 1.0, 0.3, -0.7]);
        let labels = [2, 0];
        // Start from a stale, wrongly-shaped buffer.
        let mut buf = Matrix::from_vec(1, 1, vec![42.0]);
        let loss = softmax_cross_entropy_into(&logits, &labels, &mut buf);
        assert_eq!((buf.rows(), buf.cols()), (2, 3));
        // An independent loop: p = softmax(row), loss = mean(−ln p[label]),
        // grad = (p − onehot(label)) / batch.
        let mut expected_loss = 0.0;
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let z: f64 = row.iter().map(|v| v.exp()).sum();
            for (j, v) in row.iter().enumerate() {
                let p = v.exp() / z;
                let onehot = if j == label { 1.0 } else { 0.0 };
                assert!((buf.get(r, j) - (p - onehot) / 2.0).abs() < 1e-12);
            }
            expected_loss -= (row[label].exp() / z).ln() / 2.0;
        }
        assert!((loss - expected_loss).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.1, 0.5, 1.0, 0.3, -0.7]);
        let labels = [2, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for idx in 0..logits.data().len() {
            let mut plus = logits.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-6,
                "grad mismatch at {idx}: {numeric} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    #[should_panic(expected = "one label per logit row")]
    fn mismatched_labels_are_rejected() {
        let logits = Matrix::zeros(2, 3);
        let _ = softmax_cross_entropy(&logits, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_is_rejected() {
        let logits = Matrix::zeros(1, 3);
        let _ = softmax_cross_entropy(&logits, &[7]);
    }
}
