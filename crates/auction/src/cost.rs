//! Private cost functions `c(q, θ)`.
//!
//! Section III-A (bid collection) assumes each edge node has a private cost parameter θ and a
//! cost function `c(q1, …, qm, θ)` that is increasing in the qualities and satisfies the
//! single-crossing conditions `c_qq ≥ 0`, `c_qθ > 0`, `c_qqθ ≥ 0`. Proposition 4 additionally
//! analyses the additive cost `c(q, θ) = θ Σ βi qi`. Both the linear (additive) and a convex
//! quadratic cost family are provided, plus numerical single-crossing verification used by the
//! property tests.

use crate::error::AuctionError;

/// A private cost function `c(q, θ)`.
pub trait CostFunction: Send + Sync {
    /// Number of resource dimensions `m` the function expects.
    fn dims(&self) -> usize;

    /// Evaluates `c(q, θ)`.
    fn value(&self, q: &[f64], theta: f64) -> f64;

    /// Evaluates `∂c/∂θ (q, θ)`, needed by Che's Theorem 2 payment integral.
    fn dtheta(&self, q: &[f64], theta: f64) -> f64;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "cost"
    }

    /// Evaluates `c(q, θ)` after validating dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] if `q` has the wrong number of dimensions.
    fn evaluate(&self, q: &[f64], theta: f64) -> Result<f64, AuctionError> {
        if q.len() != self.dims() {
            return Err(AuctionError::DimensionMismatch {
                expected: self.dims(),
                actual: q.len(),
            });
        }
        Ok(self.value(q, theta))
    }
}

fn validate_coefficients(beta: &[f64]) -> Result<(), AuctionError> {
    if beta.is_empty() {
        return Err(AuctionError::InvalidParameter(
            "cost coefficients must not be empty".into(),
        ));
    }
    if beta.iter().any(|b| !b.is_finite() || *b <= 0.0) {
        return Err(AuctionError::InvalidParameter(
            "cost coefficients must be finite and positive".into(),
        ));
    }
    Ok(())
}

/// The additive (linear) cost `c(q, θ) = θ Σ βi qi` analysed in Proposition 4.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCost {
    beta: Vec<f64>,
}

impl LinearCost {
    /// Creates a linear cost function with per-resource coefficients `βi > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidParameter`] for empty or non-positive coefficients.
    pub fn new(beta: Vec<f64>) -> Result<Self, AuctionError> {
        validate_coefficients(&beta)?;
        Ok(Self { beta })
    }
}

impl CostFunction for LinearCost {
    fn dims(&self) -> usize {
        self.beta.len()
    }
    fn value(&self, q: &[f64], theta: f64) -> f64 {
        theta * self.beta.iter().zip(q).map(|(b, x)| b * x).sum::<f64>()
    }
    fn dtheta(&self, q: &[f64], _theta: f64) -> f64 {
        self.beta.iter().zip(q).map(|(b, x)| b * x).sum()
    }
    fn name(&self) -> &'static str {
        "linear"
    }
}

/// A convex quadratic cost `c(q, θ) = θ Σ βi qi²`.
///
/// Strictly convex in quality, so the quality choice `argmax s(q) − c(q, θ)` of Che's
/// Theorem 1 has an interior solution even for additive scoring. Satisfies all three
/// single-crossing conditions (`c_qq = 2θβ ≥ 0`, `c_qθ = 2βq > 0` for `q > 0`,
/// `c_qqθ = 2β ≥ 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticCost {
    beta: Vec<f64>,
}

impl QuadraticCost {
    /// Creates a quadratic cost function with per-resource coefficients `βi > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidParameter`] for empty or non-positive coefficients.
    pub fn new(beta: Vec<f64>) -> Result<Self, AuctionError> {
        validate_coefficients(&beta)?;
        Ok(Self { beta })
    }
}

impl CostFunction for QuadraticCost {
    fn dims(&self) -> usize {
        self.beta.len()
    }
    fn value(&self, q: &[f64], theta: f64) -> f64 {
        theta * self.beta.iter().zip(q).map(|(b, x)| b * x * x).sum::<f64>()
    }
    fn dtheta(&self, q: &[f64], _theta: f64) -> f64 {
        self.beta.iter().zip(q).map(|(b, x)| b * x * x).sum()
    }
    fn name(&self) -> &'static str {
        "quadratic"
    }
}

impl<C: CostFunction + ?Sized> CostFunction for std::sync::Arc<C> {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn value(&self, q: &[f64], theta: f64) -> f64 {
        (**self).value(q, theta)
    }
    fn dtheta(&self, q: &[f64], theta: f64) -> f64 {
        (**self).dtheta(q, theta)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<C: CostFunction + ?Sized> CostFunction for &C {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn value(&self, q: &[f64], theta: f64) -> f64 {
        (**self).value(q, theta)
    }
    fn dtheta(&self, q: &[f64], theta: f64) -> f64 {
        (**self).dtheta(q, theta)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks the single-crossing conditions of Section III-A on a sample grid:
    /// `c_qq ≥ 0`, `c_qθ > 0`, and `c_qqθ ≥ 0` for every dimension.
    ///
    /// Returns `true` if all three hold (up to a small numerical tolerance) at every grid point.
    /// The tests below hold the production cost families to it.
    fn satisfies_single_crossing<C: CostFunction>(
        cost: &C,
        bounds: &[(f64, f64)],
        theta_range: (f64, f64),
        grid: usize,
    ) -> bool {
        if bounds.len() != cost.dims() || grid < 2 {
            return false;
        }
        let eps_q: Vec<f64> = bounds
            .iter()
            .map(|(lo, hi)| (hi - lo).abs().max(1e-6) * 1e-4)
            .collect();
        let eps_t = (theta_range.1 - theta_range.0).abs().max(1e-6) * 1e-4;
        let tol: f64 = 1e-9;

        let grid_points = |lo: f64, hi: f64| -> Vec<f64> {
            (0..grid)
                .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / grid as f64)
                .collect()
        };

        let thetas = grid_points(theta_range.0, theta_range.1);
        for dim in 0..cost.dims() {
            let qs = grid_points(bounds[dim].0, bounds[dim].1);
            for &theta in &thetas {
                for &qv in &qs {
                    let mut base: Vec<f64> =
                        bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect();
                    base[dim] = qv;
                    let h = eps_q[dim];
                    let mut q_plus = base.clone();
                    q_plus[dim] += h;
                    let mut q_minus = base.clone();
                    q_minus[dim] -= h;

                    // c_qq ≥ 0 (convexity in q).
                    let cqq = (cost.value(&q_plus, theta) - 2.0 * cost.value(&base, theta)
                        + cost.value(&q_minus, theta))
                        / (h * h);
                    if cqq < -tol.max(1e-5) {
                        return false;
                    }

                    // c_qθ > 0 (marginal cost increases with θ).
                    let cq_hi = (cost.value(&q_plus, theta + eps_t)
                        - cost.value(&q_minus, theta + eps_t))
                        / (2.0 * h);
                    let cq_lo = (cost.value(&q_plus, theta - eps_t)
                        - cost.value(&q_minus, theta - eps_t))
                        / (2.0 * h);
                    let cqt = (cq_hi - cq_lo) / (2.0 * eps_t);
                    if qv > bounds[dim].0 + h && cqt <= 0.0 {
                        return false;
                    }

                    // c_qqθ ≥ 0.
                    let cqq_hi = (cost.value(&q_plus, theta + eps_t)
                        - 2.0 * cost.value(&base, theta + eps_t)
                        + cost.value(&q_minus, theta + eps_t))
                        / (h * h);
                    let cqq_lo = (cost.value(&q_plus, theta - eps_t)
                        - 2.0 * cost.value(&base, theta - eps_t)
                        + cost.value(&q_minus, theta - eps_t))
                        / (h * h);
                    if (cqq_hi - cqq_lo) / (2.0 * eps_t) < -1e-4 {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn linear_cost_value_and_derivative() {
        let c = LinearCost::new(vec![0.6, 0.4]).unwrap();
        assert_eq!(c.dims(), 2);
        assert!((c.value(&[1.0, 2.0], 0.5) - 0.5 * 1.4).abs() < 1e-12);
        assert!((c.dtheta(&[1.0, 2.0], 0.5) - 1.4).abs() < 1e-12);
        assert_eq!(c.name(), "linear");
        assert_eq!(c.beta, &[0.6, 0.4]);
    }

    #[test]
    fn quadratic_cost_value_and_derivative() {
        let c = QuadraticCost::new(vec![2.0]).unwrap();
        assert!((c.value(&[3.0], 0.5) - 9.0).abs() < 1e-12);
        assert!((c.dtheta(&[3.0], 0.5) - 18.0).abs() < 1e-12);
        assert_eq!(c.name(), "quadratic");
        assert_eq!(c.beta, &[2.0]);
    }

    #[test]
    fn invalid_coefficients_rejected() {
        assert!(LinearCost::new(vec![]).is_err());
        assert!(LinearCost::new(vec![0.0]).is_err());
        assert!(LinearCost::new(vec![-1.0]).is_err());
        assert!(QuadraticCost::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn evaluate_checks_dimensions() {
        let c = LinearCost::new(vec![1.0, 1.0]).unwrap();
        assert!(c.evaluate(&[1.0, 1.0], 0.5).is_ok());
        assert!(matches!(
            c.evaluate(&[1.0], 0.5),
            Err(AuctionError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn costs_increase_with_theta_and_quality() {
        let lin = LinearCost::new(vec![1.0, 2.0]).unwrap();
        let quad = QuadraticCost::new(vec![1.0, 2.0]).unwrap();
        let q = [2.0, 3.0];
        for c in [&lin as &dyn CostFunction, &quad as &dyn CostFunction] {
            assert!(c.value(&q, 0.6) > c.value(&q, 0.3));
            assert!(c.value(&[3.0, 3.0], 0.5) > c.value(&[2.0, 3.0], 0.5));
        }
    }

    #[test]
    fn both_cost_families_satisfy_single_crossing() {
        let lin = LinearCost::new(vec![0.5, 0.5]).unwrap();
        let quad = QuadraticCost::new(vec![0.5, 0.5]).unwrap();
        let bounds = [(0.1, 1.0), (0.1, 1.0)];
        assert!(satisfies_single_crossing(&lin, &bounds, (0.1, 1.0), 5));
        assert!(satisfies_single_crossing(&quad, &bounds, (0.1, 1.0), 5));
    }

    #[test]
    fn single_crossing_detects_violations() {
        /// A pathological cost that decreases with θ: violates c_qθ > 0.
        #[derive(Debug)]
        struct DecreasingInTheta;
        impl CostFunction for DecreasingInTheta {
            fn dims(&self) -> usize {
                1
            }
            fn value(&self, q: &[f64], theta: f64) -> f64 {
                (1.0 - theta) * q[0]
            }
            fn dtheta(&self, q: &[f64], _theta: f64) -> f64 {
                -q[0]
            }
        }
        assert!(!satisfies_single_crossing(
            &DecreasingInTheta,
            &[(0.1, 1.0)],
            (0.1, 0.9),
            5
        ));
    }

    #[test]
    fn single_crossing_rejects_bad_configuration() {
        let lin = LinearCost::new(vec![1.0]).unwrap();
        // Wrong number of bounds.
        assert!(!satisfies_single_crossing(
            &lin,
            &[(0.0, 1.0), (0.0, 1.0)],
            (0.1, 1.0),
            5
        ));
        // Degenerate grid.
        assert!(!satisfies_single_crossing(
            &lin,
            &[(0.0, 1.0)],
            (0.1, 1.0),
            1
        ));
    }

    #[test]
    fn arc_and_ref_forwarding() {
        let arc: std::sync::Arc<dyn CostFunction> =
            std::sync::Arc::new(LinearCost::new(vec![2.0]).unwrap());
        assert_eq!(arc.dims(), 1);
        assert_eq!(arc.value(&[3.0], 1.0), 6.0);
        assert_eq!(arc.dtheta(&[3.0], 1.0), 6.0);
        let inner = LinearCost::new(vec![2.0]).unwrap();
        let r: &dyn CostFunction = &inner;
        assert_eq!((&r).value(&[3.0], 0.5), 3.0);
    }
}
