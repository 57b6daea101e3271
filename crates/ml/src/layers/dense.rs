//! Fully-connected layer.

use super::Layer;
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// A fully-connected (affine) layer `y = x·W + b`.
#[derive(Debug)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`, He-initialised.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weights: Matrix::he_init(in_features, out_features, in_features, rng),
            bias: Matrix::zeros(1, out_features),
            grad_w: Matrix::zeros(in_features, out_features),
            grad_b: Matrix::zeros(1, out_features),
            cached_input: None,
        }
    }

    /// The parameter half of the backward pass: `grad_w = xᵀ · ∂L/∂y`, `grad_b = Σ rows`.
    fn param_grads(&mut self, grad_output: &Matrix) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Dense layer");
        input.matmul_transpose_a_into(grad_output, &mut self.grad_w);
        grad_output.sum_rows_into(&mut self.grad_b);
    }
}

impl Layer for Dense {
    fn forward_into(
        &mut self,
        input: &Matrix,
        out: &mut Matrix,
        _training: bool,
        _rng: &mut StdRng,
    ) {
        // Reuse the cache buffer from the previous batch instead of cloning the input.
        let mut cache = self.cached_input.take().unwrap_or_default();
        cache.copy_from(input);
        self.cached_input = Some(cache);
        input.matmul_into(&self.weights, out);
        out.add_row_inplace(&self.bias);
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        self.param_grads(grad_output);
        grad_output.matmul_transpose_b_into(&self.weights, grad_input);
    }

    fn backward_params(&mut self, grad_output: &Matrix, _grad_input: &mut Matrix) {
        self.param_grads(grad_output);
    }

    fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.cols()
    }

    fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.data());
        out.extend_from_slice(self.bias.data());
    }

    fn read_params(&mut self, src: &[f64]) -> usize {
        let w_len = self.weights.data().len();
        let b_len = self.bias.data().len();
        self.weights.data_mut().copy_from_slice(&src[..w_len]);
        self.bias
            .data_mut()
            .copy_from_slice(&src[w_len..w_len + b_len]);
        w_len + b_len
    }

    fn apply_gradients(&mut self, lr: f64) {
        self.weights.add_scaled_in_place(&self.grad_w, -lr);
        self.bias.add_scaled_in_place(&self.grad_b, -lr);
        self.grad_w.scale_in_place(0.0);
        self.grad_b.scale_in_place(0.0);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_w: self.grad_w.clone(),
            grad_b: self.grad_b.clone(),
            cached_input: None,
        })
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use fmore_numerics::seeded_rng;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = seeded_rng(1);
        let mut layer = Dense::new(2, 3, &mut rng);
        // Overwrite parameters with known values.
        let params = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, /*bias*/ 0.5, -0.5, 1.0];
        assert_eq!(layer.read_params(&params), 9);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x, true, &mut rng);
        assert_eq!(y.data(), &[5.5, 6.5, 10.0]);
        assert_eq!(layer.name(), "dense");
    }

    #[test]
    fn write_read_roundtrip() {
        let mut rng = seeded_rng(2);
        let layer = Dense::new(4, 5, &mut rng);
        let mut out = Vec::new();
        layer.write_params(&mut out);
        assert_eq!(out.len(), layer.param_count());
        let mut other = Dense::new(4, 5, &mut rng);
        assert_eq!(other.read_params(&out), out.len());
        let mut roundtrip = Vec::new();
        other.write_params(&mut roundtrip);
        assert_eq!(out, roundtrip);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(3);
        let mut layer = Dense::new(3, 4, &mut rng);
        let x = Matrix::random_uniform(2, 3, 1.0, &mut rng);
        check_input_gradient(&mut layer, &x, 1e-5);
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // One-parameter regression style check: minimise ||y||² by gradient descent.
        let mut rng = seeded_rng(4);
        let mut layer = Dense::new(2, 1, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![1.0, 0.5, -1.0, 0.25, 0.75, -0.5, 0.1, 0.9]);
        let loss_of = |layer: &mut Dense, rng: &mut StdRng| -> f64 {
            let y = layer.forward(&x, true, rng);
            y.data().iter().map(|v| v * v).sum::<f64>()
        };
        let before = loss_of(&mut layer, &mut rng);
        for _ in 0..50 {
            let y = layer.forward(&x, true, &mut rng);
            let mut grad = y.clone();
            grad.scale_in_place(2.0);
            layer.backward(&grad);
            layer.apply_gradients(0.05);
        }
        let after = loss_of(&mut layer, &mut rng);
        assert!(
            after < before * 0.1,
            "loss should shrink: before {before} after {after}"
        );
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded_rng(5);
        let mut layer = Dense::new(2, 2, &mut rng);
        let g = Matrix::zeros(1, 2);
        let _ = layer.backward(&g);
    }

    /// A clone carries parameters and gradient accumulators but not the cached input: it
    /// must see its own forward pass before it can run backward.
    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn clone_drops_the_forward_cache() {
        let mut rng = seeded_rng(6);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::random_uniform(4, 3, 1.0, &mut rng);
        let y = layer.forward(&x, true, &mut rng);
        layer.backward(&y);
        let mut clone = layer.clone_layer();
        let mut params = (Vec::new(), Vec::new());
        layer.write_params(&mut params.0);
        clone.write_params(&mut params.1);
        assert_eq!(params.0, params.1);
        let _ = clone.backward(&y);
    }
}
