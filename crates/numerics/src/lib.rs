//! Numerical substrate for the FMore reproduction.
//!
//! The FMore incentive mechanism (Zeng et al., ICDCS 2020) requires a small set of
//! numerical tools to compute Nash-equilibrium bids and to drive the simulation:
//!
//! * numerical quadrature used for the closed-form payment integral ([`quadrature`]),
//! * one-dimensional and coordinate-wise maximisation used for the quality choice
//!   `q* = argmax s(q) − c(q, θ)` of Che's Theorem 1 ([`optimize`]),
//! * probability distributions over the private cost parameter θ and empirical CDFs
//!   estimated from historical data ([`distribution`]),
//! * min–max normalisation as used by the walk-through example of Section III-B
//!   ([`normalize`]),
//! * summary statistics used by the evaluation ([`stats`]),
//! * deterministic, seedable random-number helpers so that every experiment in the
//!   repository is reproducible ([`rng`]),
//! * the workspace-wide runtime SIMD dispatch gate shared by every vectorised kernel
//!   ([`simd`]).
//!
//! # Example
//!
//! ```
//! use fmore_numerics::optimize::maximize_scalar;
//!
//! // argmax of s(q) - c(q, θ) for s(q) = 2√q and c(q, θ) = θ q with θ = 0.5.
//! let (q_star, value) = maximize_scalar(|q| 2.0 * q.sqrt() - 0.5 * q, 0.0, 100.0, 1e-9);
//! assert!((q_star - 4.0).abs() < 1e-3);
//! assert!((value - 2.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod distribution;
pub mod error;
pub mod normalize;
pub mod optimize;
pub mod quadrature;
pub mod rng;
pub mod simd;
pub mod stats;

pub use distribution::{Distribution1D, UniformDist};
pub use error::NumericsError;
pub use optimize::maximize_coordinate;
pub use quadrature::{cumulative_trapezoid, trapezoid};
pub use rng::{derive_stream, seeded_rng};
pub use simd::{avx512_enabled, avx_enabled};
