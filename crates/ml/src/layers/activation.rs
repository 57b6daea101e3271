//! The element-wise ReLU activation layer.

use super::Layer;
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// An element-wise rectified linear unit `max(0, x)`.
#[derive(Debug, Clone)]
pub struct Activation {
    cached_output: Option<Matrix>,
}

impl Activation {
    /// Creates a ReLU layer.
    pub fn relu() -> Self {
        Self {
            cached_output: None,
        }
    }
}

impl Layer for Activation {
    fn forward_into(
        &mut self,
        input: &Matrix,
        out: &mut Matrix,
        _training: bool,
        _rng: &mut StdRng,
    ) {
        out.resize(input.rows(), input.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = x.max(0.0);
        }
        let mut cache = self.cached_output.take().unwrap_or_default();
        cache.copy_from(out);
        self.cached_output = Some(cache);
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward on Activation layer");
        assert_eq!(
            (grad_output.rows(), grad_output.cols()),
            (out.rows(), out.cols()),
            "activation gradient shape mismatch"
        );
        grad_input.resize(grad_output.rows(), grad_output.cols());
        for ((gi, &go), &y) in grad_input
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(out.data())
        {
            *gi = go * if y > 0.0 { 1.0 } else { 0.0 };
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use fmore_numerics::seeded_rng;

    #[test]
    fn relu_clamps_negatives() {
        let mut rng = seeded_rng(1);
        let mut layer = Activation::relu();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = layer.forward(&x, true, &mut rng);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        assert_eq!(layer.name(), "relu");
        assert_eq!(layer.param_count(), 0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // ReLU is checked away from the kink at zero.
        let x = Matrix::from_vec(1, 4, vec![-0.9, -0.3, 0.4, 1.2]);
        check_input_gradient(&mut Activation::relu(), &x, 1e-4);
    }

    #[test]
    fn clone_preserves_kind() {
        let layer = Activation::relu();
        let cloned = layer.clone_layer();
        assert_eq!(cloned.name(), "relu");
    }
}
