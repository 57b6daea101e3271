//! A faithful replica of the **pre-refactor** training hot path, kept as the oracle of the
//! arena-equivalence property tests.
//!
//! Before the allocation-free rework, every mini-batch of `Sequential::train_epoch`
//! allocated: the batch gather, a clone of the input at the top of the forward pass, a
//! cached clone of each dense layer's input and each activation's output, a fresh matrix
//! per `matmul` / `add_row_broadcast` / `map` / `hadamard`, materialised `transpose()`s in
//! the backward pass, and a cloned gradient to seed back-propagation. [`NaiveMlp`] performs
//! exactly that sequence of operations (allocations included) for the quick-fidelity MLP
//! architecture (`dense → relu → dense`), using only the allocating `Matrix` kernels — so
//! timing it against [`fmore_ml::Sequential::train_epoch_in`] measures precisely what the
//! rework bought, and comparing parameter trajectories bit-for-bit proves the rework
//! changed nothing numerically.

use fmore_ml::dataset::Dataset;
use fmore_ml::loss::softmax;
use fmore_ml::Matrix;
use rand::rngs::StdRng;

// --- The seed's scalar matrix kernels, reproduced verbatim. -----------------------------
//
// The refactor rewired `Matrix::matmul`/`transpose`/… onto the new register-blocked cores,
// so timing the baseline through those methods would hide most of what the rework changed.
// These free functions replicate the seed kernels operation-for-operation: the skip-zero
// i/k/j matmul, the allocating transpose, and the collect-per-call element-wise ops. For
// finite inputs they are bit-identical to the new kernels (pinned by the unit test below),
// differing only in speed and allocation behaviour.

fn seed_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a.get(i, k);
            if v == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            for (o, bv) in out.row_mut(i).iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }
    out
}

fn seed_transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols(), m.rows());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            out.set(j, i, m.get(i, j));
        }
    }
    out
}

fn seed_map<F: Fn(f64) -> f64>(m: &Matrix, f: F) -> Matrix {
    Matrix::from_vec(m.rows(), m.cols(), m.data().iter().map(|&x| f(x)).collect())
}

fn seed_hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_vec(
        a.rows(),
        a.cols(),
        a.data().iter().zip(b.data()).map(|(x, y)| x * y).collect(),
    )
}

fn seed_add_row_broadcast(m: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..m.rows() {
        for (o, bv) in out.row_mut(i).iter_mut().zip(bias.row(0)) {
            *o += bv;
        }
    }
    out
}

fn seed_sum_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, m.cols());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            out.set(0, j, out.get(0, j) + m.get(i, j));
        }
    }
    out
}

/// The seed's softmax cross-entropy: a probability matrix and a gradient clone per call.
fn seed_softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    let probs = softmax(logits);
    let batch = logits.rows() as f64;
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        let p = probs.get(r, label).max(1e-12);
        loss -= p.ln();
        grad.set(r, label, grad.get(r, label) - 1.0);
    }
    grad.scale_in_place(1.0 / batch);
    (loss / batch, grad)
}

/// The pre-refactor `dense → relu → dense` training path (see the module docs).
#[derive(Debug, Clone)]
pub struct NaiveMlp {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
}

impl NaiveMlp {
    /// Builds the baseline from a flat parameter vector in `Sequential` export order
    /// (`w1`, `b1`, `w2`, `b2`), as produced by an MLP from
    /// [`fmore_ml::models::mlp_classifier`]-style stacks.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length for the given dimensions.
    pub fn from_params(input: usize, hidden: usize, classes: usize, params: &[f64]) -> Self {
        let (w1_len, b1_len, w2_len, b2_len) = (input * hidden, hidden, hidden * classes, classes);
        assert_eq!(
            params.len(),
            w1_len + b1_len + w2_len + b2_len,
            "parameter vector length mismatch"
        );
        let mut offset = 0;
        let mut take = |rows: usize, cols: usize| {
            let m = Matrix::from_vec(rows, cols, params[offset..offset + rows * cols].to_vec());
            offset += rows * cols;
            m
        };
        Self {
            w1: take(input, hidden),
            b1: take(1, hidden),
            w2: take(hidden, classes),
            b2: take(1, classes),
        }
    }

    /// Exports the parameters in the same flat order they were imported.
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::new();
        out.extend_from_slice(self.w1.data());
        out.extend_from_slice(self.b1.data());
        out.extend_from_slice(self.w2.data());
        out.extend_from_slice(self.b2.data());
        out
    }

    /// One epoch of mini-batch SGD, operation-for-operation identical (allocations
    /// included) to the pre-refactor `Sequential::train_epoch`. Returns the mean batch
    /// loss; consumes the same RNG stream as the arena-backed path.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        let batch_size = batch_size.max(1);
        let mut order = indices.to_vec();
        fmore_numerics::rng::shuffle(&mut order, rng);
        let mut total_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let (x, y) = data.batch(chunk);
            // Forward, with the clone-per-stage caching the old layers performed.
            let x = x.clone(); // Sequential::forward started from a clone of the batch
            let cached_x = x.clone(); // Dense 1 cached its input
            let z1 = seed_add_row_broadcast(&seed_matmul(&x, &self.w1), &self.b1);
            let a1 = seed_map(&z1, |v| v.max(0.0));
            let cached_a1 = a1.clone(); // Activation cached its output
            let cached_a1_in = a1.clone(); // Dense 2 cached its input
            let logits = seed_add_row_broadcast(&seed_matmul(&a1, &self.w2), &self.b2);
            let (loss, grad_logits) = seed_softmax_cross_entropy(&logits, &y);
            // Backward, with materialised transposes as the old dense layer used.
            let grad = grad_logits.clone(); // backward_and_step cloned the loss gradient
            let grad_w2 = seed_matmul(&seed_transpose(&cached_a1_in), &grad);
            let grad_b2 = seed_sum_rows(&grad);
            let grad_h = seed_matmul(&grad, &seed_transpose(&self.w2));
            let deriv = seed_map(&cached_a1, |y| if y > 0.0 { 1.0 } else { 0.0 });
            let grad_z1 = seed_hadamard(&grad_h, &deriv);
            let grad_w1 = seed_matmul(&seed_transpose(&cached_x), &grad_z1);
            let grad_b1 = seed_sum_rows(&grad_z1);
            // The old stack also produced ∂L/∂input of the first layer.
            let _grad_x = seed_matmul(&grad_z1, &seed_transpose(&self.w1));
            self.w1.add_scaled_in_place(&grad_w1, -learning_rate);
            self.b1.add_scaled_in_place(&grad_b1, -learning_rate);
            self.w2.add_scaled_in_place(&grad_w2, -learning_rate);
            self.b2.add_scaled_in_place(&grad_b2, -learning_rate);
            total_loss += loss;
            batches += 1;
        }
        total_loss / batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_ml::dataset::SyntheticImageSpec;
    use fmore_ml::layers::{Activation, Dense, Layer};
    use fmore_ml::model::Model;
    use fmore_ml::Sequential;
    use fmore_numerics::seeded_rng;

    /// The baseline and the arena-backed `Sequential` produce bit-identical parameter
    /// trajectories from the same seed — the contract that makes it a like-for-like oracle.
    #[test]
    fn baseline_matches_sequential_bit_for_bit() {
        let mut data_rng = seeded_rng(40);
        let data = SyntheticImageSpec::mnist_like().generate(150, &mut data_rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let mut build_rng = seeded_rng(41);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(data.feature_dim(), 32, &mut build_rng)) as Box<dyn Layer>,
            Box::new(Activation::relu()),
            Box::new(Dense::new(32, data.num_classes(), &mut build_rng)),
        ]);
        let mut naive = NaiveMlp::from_params(
            data.feature_dim(),
            32,
            data.num_classes(),
            &model.parameters(),
        );
        let mut rng_a = seeded_rng(42);
        let mut rng_b = seeded_rng(42);
        for _ in 0..2 {
            let la = model.train_epoch(&data, &all, 0.1, 16, &mut rng_a);
            let lb = naive.train_epoch(&data, &all, 0.1, 16, &mut rng_b);
            assert_eq!(la.to_bits(), lb.to_bits());
            assert_eq!(model.parameters(), naive.parameters());
        }
    }
}
