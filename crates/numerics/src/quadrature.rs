//! Numerical quadrature.
//!
//! The equilibrium payment of Theorem 1 contains the integral `∫_0^u g(x)/g(u) dx`, and the
//! one-winner benchmark of Che's Theorem 2 contains `∫_θ^θ̄ c_θ(q_s(t), t) ((1-F(t))/(1-F(θ)))^{N-1} dt`.
//! Both are evaluated with the composite rules below.

use crate::error::NumericsError;

/// Integrates `f` over `[a, b]` with the composite trapezoid rule on `n` sub-intervals.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInterval`] when `b < a` or an endpoint is not finite, and
/// [`NumericsError::EmptyInput`] when `n == 0`.
///
/// # Example
///
/// ```
/// use fmore_numerics::quadrature::trapezoid;
/// let integral = trapezoid(|x| x * x, 0.0, 1.0, 10_000).unwrap();
/// assert!((integral - 1.0 / 3.0).abs() < 1e-6);
/// ```
pub fn trapezoid<F>(mut f: F, a: f64, b: f64, n: usize) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> f64,
{
    validate(a, b, n)?;
    if a == b {
        return Ok(0.0);
    }
    let h = (b - a) / n as f64;
    let mut sum = 0.5 * (f(a) + f(b));
    for i in 1..n {
        sum += f(a + i as f64 * h);
    }
    Ok(sum * h)
}

/// Computes the cumulative integral `F(x_i) = ∫_{x_0}^{x_i} y dx` of sampled data with the
/// trapezoid rule. Returns one value per grid point; the first value is always `0`.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `xs` is empty and
/// [`NumericsError::InvalidInterval`] if `xs` and `ys` have different lengths or `xs` is not
/// non-decreasing.
pub fn cumulative_trapezoid(xs: &[f64], ys: &[f64]) -> Result<Vec<f64>, NumericsError> {
    if xs.is_empty() {
        return Err(NumericsError::EmptyInput("cumulative_trapezoid grid"));
    }
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidInterval {
            lo: xs.len() as f64,
            hi: ys.len() as f64,
        });
    }
    let mut out = Vec::with_capacity(xs.len());
    out.push(0.0);
    for i in 1..xs.len() {
        let dx = xs[i] - xs[i - 1];
        if dx < 0.0 {
            return Err(NumericsError::InvalidInterval {
                lo: xs[i - 1],
                hi: xs[i],
            });
        }
        let area = 0.5 * (ys[i] + ys[i - 1]) * dx;
        out.push(out[i - 1] + area);
    }
    Ok(out)
}

fn validate(a: f64, b: f64, n: usize) -> Result<(), NumericsError> {
    if !a.is_finite() || !b.is_finite() || b < a {
        return Err(NumericsError::InvalidInterval { lo: a, hi: b });
    }
    if n == 0 {
        return Err(NumericsError::EmptyInput("quadrature intervals"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_quadratic() {
        let v = trapezoid(|x| x * x, 0.0, 2.0, 20_000).unwrap();
        assert!((v - 8.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_interval_integrates_to_zero() {
        assert_eq!(trapezoid(|x| x, 1.0, 1.0, 10).unwrap(), 0.0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(trapezoid(|x| x, 1.0, 0.0, 10).is_err());
        assert!(trapezoid(|x| x, 0.0, 1.0, 0).is_err());
        assert!(trapezoid(|x| x, f64::NAN, 1.0, 10).is_err());
    }

    #[test]
    fn cumulative_matches_closed_form() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        let cum = cumulative_trapezoid(&xs, &ys).unwrap();
        // ∫ 2x dx = x^2
        for (x, c) in xs.iter().zip(cum.iter()) {
            assert!((c - x * x).abs() < 1e-4, "x={x} c={c}");
        }
    }

    #[test]
    fn cumulative_rejects_mismatched_and_unsorted() {
        assert!(cumulative_trapezoid(&[0.0, 1.0], &[0.0]).is_err());
        assert!(cumulative_trapezoid(&[0.0, 1.0, 0.5], &[1.0, 1.0, 1.0]).is_err());
        assert!(cumulative_trapezoid(&[], &[]).is_err());
    }
}
