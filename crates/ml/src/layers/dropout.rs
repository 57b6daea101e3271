//! Inverted dropout.

use super::Layer;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Inverted dropout: during training each unit is zeroed with probability `rate` and the
/// survivors are scaled by `1 / (1 − rate)`; at evaluation time the layer is the identity.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f64,
    /// Reusable mask buffer; only meaningful while `mask_active` is set.
    mask: Matrix,
    /// Whether the last forward pass applied the mask (i.e. ran in training mode).
    mask_active: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `rate`, clamped into `[0, 0.95]`.
    pub(crate) fn new(rate: f64) -> Self {
        Self {
            rate: rate.clamp(0.0, 0.95),
            mask: Matrix::default(),
            mask_active: false,
        }
    }
}

impl Layer for Dropout {
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, training: bool, rng: &mut StdRng) {
        if !training || self.rate == 0.0 {
            self.mask_active = false;
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.rate;
        self.mask.resize(input.rows(), input.cols());
        for v in self.mask.data_mut() {
            *v = if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        self.mask_active = true;
        out.resize(input.rows(), input.cols());
        for ((o, &x), &m) in out
            .data_mut()
            .iter_mut()
            .zip(input.data())
            .zip(self.mask.data())
        {
            *o = x * m;
        }
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        if self.mask_active {
            assert_eq!(
                (grad_output.rows(), grad_output.cols()),
                (self.mask.rows(), self.mask.cols()),
                "dropout gradient shape mismatch"
            );
            grad_input.resize(grad_output.rows(), grad_output.cols());
            for ((gi, &go), &m) in grad_input
                .data_mut()
                .iter_mut()
                .zip(grad_output.data())
                .zip(self.mask.data())
            {
                *gi = go * m;
            }
        } else {
            grad_input.copy_from(grad_output);
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            rate: self.rate,
            mask: Matrix::default(),
            mask_active: false,
        })
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    #[test]
    fn evaluation_mode_is_identity() {
        let mut rng = seeded_rng(1);
        let mut layer = Dropout::new(0.5);
        let x = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let y = layer.forward(&x, false, &mut rng);
        assert_eq!(y, x);
        // Backward without a mask is also the identity.
        let g = Matrix::from_vec(2, 3, vec![2.0; 6]);
        assert_eq!(layer.backward(&g), g);
    }

    #[test]
    fn training_mode_zeroes_and_rescales() {
        let mut rng = seeded_rng(2);
        let mut layer = Dropout::new(0.5);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = layer.forward(&x, true, &mut rng);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y
            .data()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-12)
            .count();
        assert_eq!(zeros + kept, 1000);
        assert!(
            (400..600).contains(&zeros),
            "roughly half should be dropped, got {zeros}"
        );
        // Expected value is preserved by the inverted scaling.
        let mean = y.data().iter().sum::<f64>() / y.data().len() as f64;
        assert!((mean - 1.0).abs() < 0.15);
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut rng = seeded_rng(3);
        let mut layer = Dropout::new(0.4);
        let x = Matrix::from_vec(1, 50, vec![1.0; 50]);
        let y = layer.forward(&x, true, &mut rng);
        let grad = layer.backward(&Matrix::from_vec(1, 50, vec![1.0; 50]));
        // Gradient is zero exactly where the output was dropped.
        for (o, g) in y.data().iter().zip(grad.data()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn rate_is_clamped_and_zero_rate_is_identity() {
        assert_eq!(Dropout::new(1.5).rate, 0.95);
        assert_eq!(Dropout::new(-0.2).rate, 0.0);
        let mut rng = seeded_rng(4);
        let mut layer = Dropout::new(0.0);
        let x = Matrix::from_vec(1, 5, vec![3.0; 5]);
        assert_eq!(layer.forward(&x, true, &mut rng), x);
        assert_eq!(layer.name(), "dropout");
    }
}
