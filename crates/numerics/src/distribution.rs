//! Probability distributions over the private cost parameter θ.
//!
//! The FMore model (Section III) assumes each edge node's private cost parameter θ is drawn
//! i.i.d. from a distribution with CDF `F` supported on `[θ̲, θ̄]` with `0 < θ̲ < θ̄ < ∞` and a
//! positive, continuously differentiable density `f`.

use crate::error::NumericsError;
use rand::Rng;

/// A one-dimensional distribution with bounded support, as assumed for θ in the paper.
pub trait Distribution1D {
    /// Lower end of the support (θ̲ in the paper).
    fn lower(&self) -> f64;
    /// Upper end of the support (θ̄ in the paper).
    fn upper(&self) -> f64;
    /// Cumulative distribution function `F(x) = Pr[θ ≤ x]`, clamped to `[0, 1]`.
    fn cdf(&self, x: f64) -> f64;
    /// Probability density function `f(x)`; zero outside the support.
    fn pdf(&self, x: f64) -> f64;
    /// Draws one sample using the supplied random-number generator.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The quantile function `F⁻¹(p)`, computed by bisection on the CDF.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidProbability`] if `p ∉ [0, 1]`.
    fn quantile(&self, p: f64) -> Result<f64, NumericsError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(NumericsError::InvalidProbability(p));
        }
        let (mut lo, mut hi) = (self.lower(), self.upper());
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// The uniform distribution on `[lo, hi]` — the default model for θ in our experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDist {
    lo: f64,
    hi: f64,
}

impl UniformDist {
    /// Creates a uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInterval`] if `lo ≥ hi` or an endpoint is not finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, NumericsError> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(NumericsError::InvalidInterval { lo, hi });
        }
        Ok(Self { lo, hi })
    }
}

impl Distribution1D for UniformDist {
    fn lower(&self) -> f64 {
        self.lo
    }
    fn upper(&self) -> f64 {
        self.hi
    }
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x <= self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn uniform_basic_properties() {
        let d = UniformDist::new(0.1, 0.9).unwrap();
        assert_eq!(d.lower(), 0.1);
        assert_eq!(d.upper(), 0.9);
        assert!((d.cdf(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(1.0), 1.0);
        assert!((d.pdf(0.5) - 1.25).abs() < 1e-12);
        assert_eq!(d.pdf(1.5), 0.0);
    }

    #[test]
    fn uniform_rejects_bad_intervals() {
        assert!(UniformDist::new(1.0, 1.0).is_err());
        assert!(UniformDist::new(2.0, 1.0).is_err());
        assert!(UniformDist::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn uniform_samples_stay_in_support() {
        let d = UniformDist::new(0.1, 0.9).unwrap();
        let mut rng = seeded_rng(7);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((0.1..0.9).contains(&x));
        }
    }

    #[test]
    fn uniform_quantile_inverts_cdf() {
        let d = UniformDist::new(2.0, 6.0).unwrap();
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let q = d.quantile(p).unwrap();
            assert!((d.cdf(q) - p).abs() < 1e-6, "p={p} q={q}");
        }
        assert!(d.quantile(1.5).is_err());
        assert!(d.quantile(-0.1).is_err());
    }
}
