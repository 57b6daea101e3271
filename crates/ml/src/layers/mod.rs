//! Neural-network layers with forward and backward passes.
//!
//! All layers operate on mini-batches stored as [`Matrix`] values of shape
//! `(batch, features)`. Convolutional and pooling layers interpret the feature axis as a
//! flattened `channels × height × width` volume described by an [`ImageShape`].

mod activation;
mod conv;
mod dense;
mod dropout;
mod lstm;

pub use activation::Activation;
pub use conv::{Conv2d, ImageShape, MaxPool2d};
pub use dense::Dense;
pub use dropout::Dropout;
pub(crate) use lstm::Lstm;

use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// A differentiable layer.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward_into`] consumes a mini-batch, writes the output into a caller-owned
///    matrix, and caches whatever it needs for the backward pass;
/// 2. [`Layer::backward_into`] consumes `∂L/∂output`, accumulates parameter gradients
///    internally, and writes `∂L/∂input` into a caller-owned matrix;
/// 3. [`Layer::apply_gradients`] performs one SGD step (`w ← w − lr · ∇w`) and clears the
///    accumulated gradients.
///
/// The `_into` forms are the hot path: output and gradient matrices live in a
/// [`crate::arena::ScratchArena`] (or any caller buffer) and are reshaped in place, so
/// steady-state training allocates nothing. Internal caches (saved inputs, dropout masks,
/// LSTM state) are likewise reused across calls. The allocating [`Layer::forward`] /
/// [`Layer::backward`] wrappers delegate to the `_into` forms — one code path, bit-identical
/// results.
///
/// Parameters can be exported and imported as flat `f64` slices so the federated-learning
/// crate can average models across clients (FedAvg, Eq. 3 of the paper).
pub trait Layer: Send + Sync {
    /// Forward pass over a `(batch, in_features)` matrix, written into `out` (reshaped as
    /// needed; must not alias `input`). `training` enables stochastic behaviour such as
    /// dropout.
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, training: bool, rng: &mut StdRng);

    /// Backward pass: receives `∂L/∂output`, writes `∂L/∂input` into `grad_input` (reshaped
    /// as needed; must not alias `grad_output`).
    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix);

    /// Backward pass of a layer whose `∂L/∂input` nobody reads — the first layer of a stack.
    /// Accumulates parameter gradients exactly as [`Layer::backward_into`] does and leaves
    /// the contents of `grad_input` unspecified; layers whose input gradient is a separate
    /// computation override this to skip it.
    fn backward_params(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        self.backward_into(grad_output, grad_input);
    }

    /// Allocating convenience wrapper over [`Layer::forward_into`].
    fn forward(&mut self, input: &Matrix, training: bool, rng: &mut StdRng) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out, training, rng);
        out
    }

    /// Allocating convenience wrapper over [`Layer::backward_into`].
    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad_input = Matrix::default();
        self.backward_into(grad_output, &mut grad_input);
        grad_input
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Appends the layer's parameters to `out` in a stable order.
    fn write_params(&self, _out: &mut Vec<f64>) {}

    /// Reads the layer's parameters back from `src`, returning how many values were consumed.
    fn read_params(&mut self, _src: &[f64]) -> usize {
        0
    }

    /// Applies one SGD step with learning rate `lr` and clears accumulated gradients.
    fn apply_gradients(&mut self, _lr: f64) {}

    /// Clones the layer into a boxed trait object (parameters included, caches excluded).
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// Short layer name used in model summaries.
    fn name(&self) -> &'static str;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_layer()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use fmore_numerics::seeded_rng;

    /// Finite-difference gradient check for a layer: perturbs each input entry and compares
    /// the numerical gradient of `sum(output)` with the analytic gradient returned by
    /// `backward(ones)`.
    pub(crate) fn check_input_gradient<L: Layer>(layer: &mut L, input: &Matrix, tolerance: f64) {
        let mut rng = seeded_rng(0);
        let out = layer.forward(input, false, &mut rng);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let analytic = layer.backward(&ones);
        let eps = 1e-5;
        for idx in 0..input.data().len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let mut rng_p = seeded_rng(0);
            let f_plus: f64 = layer.forward(&plus, false, &mut rng_p).data().iter().sum();
            let mut rng_m = seeded_rng(0);
            let f_minus: f64 = layer.forward(&minus, false, &mut rng_m).data().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let got = analytic.data()[idx];
            assert!(
                (numeric - got).abs() < tolerance * numeric.abs().max(1.0),
                "gradient mismatch at {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}
