//! Nash-equilibrium bidding strategies (Section IV of the paper).
//!
//! Every edge node maps its private cost parameter θ to a bid `(q*, p*)`:
//!
//! * **Quality** (Che's Theorem 1, Proposition 3): `q*(θ) = argmax_q s(q) − c(q, θ)`,
//!   independent of the payment and of the other bidders.
//! * **Payment** (the paper's Theorem 1): with the maximum attainable score
//!   `u(θ) = s(q*(θ)) − c(q*(θ), θ)`, the opponent-score CDF `H(x) = 1 − F(u⁻¹(x))`, and the
//!   winning probability `g(u) = Σ_{i=1}^{K} [1−H(u)]^{i−1} [H(u)]^{N−i}`, the equilibrium
//!   payment is `p*(θ) = c(q*, θ) + ∫₀ᵘ g(x) dx / g(u)`.
//!
//! The integral can be evaluated directly by quadrature or — as the paper's Algorithm 1
//! proposes — by integrating the equivalent first-order ODE `b'(u) + φ(u) b(u) = u φ(u)` with
//! the Euler method. Both are provided ([`PaymentMethod`]), plus the closed-form benchmarks of
//! Che's Theorem 2 (one winner) and Proposition 1 (two winners).
//!
//! Production drivers derive their solver from the auction that ranks the bids,
//! [`crate::Auction::equilibrium`], so the scoring rule and `K` are given once;
//! [`EquilibriumSolver::builder`] serves the tests, the benchmark and the games that entry
//! point does not cover (non-linear costs, other quality boxes, other payment methods).

use crate::cost::CostFunction;
use crate::error::AuctionError;
use crate::mechanism::SubmittedBid;
use crate::scoring::{ScoringFunction, ScoringRule};
use crate::types::{NodeId, Quality};
use fmore_numerics::distribution::Distribution1D;
use fmore_numerics::optimize::maximize_coordinate;
use fmore_numerics::quadrature::{cumulative_trapezoid, trapezoid};
use std::sync::Arc;

/// Default number of θ grid points used to tabulate the equilibrium.
const DEFAULT_GRID: usize = 512;
/// Default number of coordinate-ascent sweeps for the quality choice.
const DEFAULT_SWEEPS: usize = 6;

/// How the equilibrium payment integral is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PaymentMethod {
    /// Direct composite-trapezoid quadrature of `∫₀ᵘ g(x) dx / g(u)` (default, most accurate).
    #[default]
    Quadrature,
    /// Forward-Euler integration of the first-order ODE from the paper's proof of Theorem 1
    /// — the method Algorithm 1 runs on every edge node.
    Euler {
        /// Number of Euler steps over the score range.
        steps: usize,
    },
    /// The closed-form integral of Che's Theorem 2 / Proposition 1. Only available for
    /// `K ∈ {1, 2}`; selecting it for larger `K` yields a build error.
    CheClosedForm,
}

/// The Nash-equilibrium bid of a node with a given private cost parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumBid {
    /// Equilibrium quality vector `q*(θ)`.
    pub quality: Quality,
    /// Equilibrium payment ask `p*(θ)`.
    pub ask: f64,
    /// Maximum attainable score `u(θ) = s(q*) − c(q*, θ)`; this is also the score the
    /// aggregator will compute for the bid, since `S(q*, p*) = s(q*) − p*` differs from `u`
    /// only by the information rent.
    pub max_score: f64,
    /// Score the aggregator will assign: `S(q*, p*) = s(q*) − p*`.
    pub score: f64,
    /// Probability of winning at this score, `g(u)`.
    pub win_probability: f64,
    /// Expected profit `(p* − c(q*, θ)) · g(u)`.
    pub expected_profit: f64,
}

/// A node's solved equilibrium strategy: the ideal quality `q*(θ)` and the ask `p*(θ)`.
///
/// Both depend only on the node's private θ and the broadcast game (scoring rule, cost
/// family, θ distribution, bounds, `N`, `K`), never on the round — so a node that keeps its
/// θ solves this once, when the rule is broadcast (Algorithm 1 step 1), and afterwards only
/// [caps](EquilibriumStrategy::cap) it to each round's capacity. The only way to obtain one
/// is [`EquilibriumSolver::strategy_for`].
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumStrategy {
    quality: Vec<f64>,
    ask: f64,
}

impl EquilibriumStrategy {
    /// The sealed bid of `node` in a round where it holds `capacity`: `q*(θ)` clipped
    /// component-wise to the capacity (a node cannot promise more data, categories, or
    /// hardware than it holds this round), with the ask `p*(θ)` unchanged. No solver work.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] when `capacity` has the wrong dimension.
    pub fn cap(&self, node: NodeId, capacity: &[f64]) -> Result<SubmittedBid, AuctionError> {
        if capacity.len() != self.quality.len() {
            return Err(AuctionError::DimensionMismatch {
                expected: self.quality.len(),
                actual: capacity.len(),
            });
        }
        let declared: Vec<f64> = self
            .quality
            .iter()
            .zip(capacity)
            .map(|(want, have)| want.min(*have))
            .collect();
        Ok(SubmittedBid::new(node, Quality::new(declared), self.ask))
    }
}

/// Bounded-support model of θ with a tabulated CDF.
///
/// The solver stores this instead of a generic distribution so it stays object-safe,
/// cloneable, and cheap to share across clients.
#[derive(Debug, Clone)]
struct ThetaModel {
    lo: f64,
    hi: f64,
    /// `cdf[i] = F(lo + i·(hi−lo)/(len−1))`.
    cdf: Vec<f64>,
}

impl ThetaModel {
    fn from_distribution<D: Distribution1D>(dist: &D, grid: usize) -> Self {
        let lo = dist.lower();
        let hi = dist.upper();
        let grid = grid.max(8);
        let cdf = (0..grid)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (grid - 1) as f64;
                dist.cdf(x).clamp(0.0, 1.0)
            })
            .collect();
        Self { lo, hi, cdf }
    }

    fn cdf(&self, theta: f64) -> f64 {
        if theta <= self.lo {
            return 0.0;
        }
        if theta >= self.hi {
            return 1.0;
        }
        let t = (theta - self.lo) / (self.hi - self.lo) * (self.cdf.len() - 1) as f64;
        let idx = t.floor() as usize;
        let frac = t - idx as f64;
        if idx + 1 >= self.cdf.len() {
            return self.cdf[self.cdf.len() - 1];
        }
        self.cdf[idx] + frac * (self.cdf[idx + 1] - self.cdf[idx])
    }
}

/// Builder for [`EquilibriumSolver`].
///
/// # Example
///
/// ```
/// use fmore_auction::prelude::*;
/// use fmore_numerics::UniformDist;
///
/// let solver = EquilibriumSolver::builder()
///     .scoring(Additive::new(vec![1.0, 1.0])?)
///     .cost(QuadraticCost::new(vec![1.0, 1.0])?)
///     .theta(UniformDist::new(0.1, 1.0)?)
///     .bounds(vec![(0.0, 2.0), (0.0, 2.0)])
///     .population(50)
///     .winners(5)
///     .build()?;
/// let bid = solver.bid_for(0.4)?;
/// assert!(bid.expected_profit >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EquilibriumSolverBuilder {
    scoring: Option<Arc<dyn ScoringFunction>>,
    cost: Option<Arc<dyn CostFunction>>,
    theta: Option<ThetaModel>,
    bounds: Vec<(f64, f64)>,
    n: usize,
    k: usize,
    payment_method: PaymentMethod,
    grid: usize,
    sweeps: usize,
}

impl std::fmt::Debug for EquilibriumSolverBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquilibriumSolverBuilder")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("grid", &self.grid)
            .field("payment_method", &self.payment_method)
            .finish()
    }
}

impl Default for EquilibriumSolverBuilder {
    fn default() -> Self {
        Self {
            scoring: None,
            cost: None,
            theta: None,
            bounds: Vec::new(),
            n: 0,
            k: 0,
            payment_method: PaymentMethod::default(),
            grid: DEFAULT_GRID,
            sweeps: DEFAULT_SWEEPS,
        }
    }
}

impl EquilibriumSolverBuilder {
    /// Sets the scoring function `s(q)` broadcast by the aggregator.
    pub fn scoring<S: ScoringFunction + 'static>(mut self, s: S) -> Self {
        self.scoring = Some(Arc::new(s));
        self
    }

    /// Sets the scoring function to the one `rule` broadcasts, shared, not copied.
    pub(crate) fn scoring_rule(mut self, rule: &ScoringRule) -> Self {
        self.scoring = Some(Arc::clone(&rule.s));
        self
    }

    /// Sets the node's private cost function `c(q, θ)`.
    pub fn cost<C: CostFunction + 'static>(mut self, c: C) -> Self {
        self.cost = Some(Arc::new(c));
        self
    }

    /// Sets the distribution of the private cost parameter θ (the CDF `F` every node learned
    /// from historical data).
    pub fn theta<D: Distribution1D>(mut self, dist: D) -> Self {
        self.theta = Some(ThetaModel::from_distribution(&dist, 2048));
        self
    }

    /// Sets the per-resource quality bounds the node can feasibly provide.
    pub fn bounds(mut self, bounds: Vec<(f64, f64)>) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets the total number of competing nodes `N`.
    pub fn population(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the number of auction winners `K`.
    pub fn winners(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Selects how the payment integral is evaluated (default: quadrature).
    pub fn payment_method(mut self, method: PaymentMethod) -> Self {
        self.payment_method = method;
        self
    }

    /// Sets the θ tabulation grid size (default 512, minimum 16).
    pub fn grid_size(mut self, grid: usize) -> Self {
        self.grid = grid.max(16);
        self
    }

    /// Builds the solver, tabulating the equilibrium over the θ support.
    ///
    /// # Errors
    ///
    /// * [`AuctionError::InvalidParameter`] if a component is missing or bounds are invalid,
    /// * [`AuctionError::DimensionMismatch`] if scoring, cost, and bounds disagree on `m`,
    /// * [`AuctionError::InvalidGame`] if `K = 0`, `N = 0`, or `K > N`, or if
    ///   [`PaymentMethod::CheClosedForm`] is requested with `K > 2`.
    pub fn build(self) -> Result<EquilibriumSolver, AuctionError> {
        let scoring = self
            .scoring
            .ok_or_else(|| AuctionError::InvalidParameter("scoring function not set".into()))?;
        let cost = self
            .cost
            .ok_or_else(|| AuctionError::InvalidParameter("cost function not set".into()))?;
        let theta = self
            .theta
            .ok_or_else(|| AuctionError::InvalidParameter("theta distribution not set".into()))?;
        if self.bounds.is_empty() {
            return Err(AuctionError::InvalidParameter(
                "quality bounds not set".into(),
            ));
        }
        if scoring.dims() != self.bounds.len() {
            return Err(AuctionError::DimensionMismatch {
                expected: scoring.dims(),
                actual: self.bounds.len(),
            });
        }
        if cost.dims() != self.bounds.len() {
            return Err(AuctionError::DimensionMismatch {
                expected: cost.dims(),
                actual: self.bounds.len(),
            });
        }
        if self
            .bounds
            .iter()
            .any(|&(lo, hi)| !lo.is_finite() || !hi.is_finite() || hi < lo || lo < 0.0)
        {
            return Err(AuctionError::InvalidParameter(
                "quality bounds must be finite, non-negative, and ordered".into(),
            ));
        }
        if self.n == 0 || self.k == 0 || self.k > self.n {
            return Err(AuctionError::InvalidGame {
                n: self.n,
                k: self.k,
            });
        }
        if matches!(self.payment_method, PaymentMethod::CheClosedForm) && self.k > 2 {
            return Err(AuctionError::InvalidParameter(
                "Che closed form is only available for K = 1 or K = 2".into(),
            ));
        }
        if let PaymentMethod::Euler { steps } = self.payment_method {
            if steps == 0 {
                return Err(AuctionError::InvalidParameter(
                    "Euler steps must be > 0".into(),
                ));
            }
        }

        let mut solver = EquilibriumSolver {
            scoring,
            cost,
            theta,
            bounds: self.bounds,
            n: self.n,
            k: self.k,
            payment_method: self.payment_method,
            sweeps: self.sweeps,
            thetas: Vec::new(),
            qualities: Vec::new(),
            u_values: Vec::new(),
            u_grid: Vec::new(),
            g_grid: Vec::new(),
            g_cumulative: Vec::new(),
            payments: Vec::new(),
            flat_qualities: Vec::new(),
        };
        solver.tabulate(self.grid)?;
        Ok(solver)
    }
}

/// Precomputed Nash-equilibrium bidding strategy for one auction configuration
/// (scoring rule, cost family, θ distribution, quality bounds, `N`, `K`).
///
/// A single solver is shared by all nodes that face the same configuration; each node then
/// obtains its own bid with [`EquilibriumSolver::bid_for`] using its private θ.
#[derive(Clone)]
pub struct EquilibriumSolver {
    scoring: Arc<dyn ScoringFunction>,
    cost: Arc<dyn CostFunction>,
    theta: ThetaModel,
    bounds: Vec<(f64, f64)>,
    n: usize,
    k: usize,
    payment_method: PaymentMethod,
    sweeps: usize,
    /// Ascending θ grid.
    thetas: Vec<f64>,
    /// `q*(θ_i)` for every grid point.
    qualities: Vec<Vec<f64>>,
    /// `u(θ_i) = s(q*) − c(q*, θ_i)`, non-increasing in θ.
    u_values: Vec<f64>,
    /// Ascending score grid spanning `[u_min, u_max]`.
    u_grid: Vec<f64>,
    /// `g(u)` on the score grid.
    g_grid: Vec<f64>,
    /// `∫_{u_min}^{u} g(x) dx` on the score grid.
    g_cumulative: Vec<f64>,
    /// `p*(θ_i)` for every θ grid point — the equilibrium ask table behind the O(1)
    /// population-scale bid path ([`EquilibriumSolver::tabulated_bids_at`]).
    payments: Vec<f64>,
    /// Row-major copy of `qualities` (`grid × dims`, stride `bounds.len()`): adjacent grid
    /// rows share cache lines, so the per-bid interpolation in
    /// [`EquilibriumSolver::tabulated_bid_into`] reads two contiguous slices instead of
    /// chasing two heap-separated row pointers. Same values, purely a layout twin.
    flat_qualities: Vec<f64>,
}

impl std::fmt::Debug for EquilibriumSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquilibriumSolver")
            .field("scoring", &self.scoring.name())
            .field("cost", &self.cost.name())
            .field("n", &self.n)
            .field("k", &self.k)
            .field("payment_method", &self.payment_method)
            .field("grid", &self.thetas.len())
            .finish()
    }
}

impl EquilibriumSolver {
    /// Starts building a solver.
    pub fn builder() -> EquilibriumSolverBuilder {
        EquilibriumSolverBuilder::default()
    }

    /// The θ support `[θ̲, θ̄]`.
    pub fn theta_support(&self) -> (f64, f64) {
        (self.theta.lo, self.theta.hi)
    }

    fn tabulate(&mut self, grid: usize) -> Result<(), AuctionError> {
        let (lo, hi) = (self.theta.lo, self.theta.hi);
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi || lo <= 0.0 {
            return Err(AuctionError::InvalidParameter(format!(
                "theta support [{lo}, {hi}] must satisfy 0 < lo < hi < inf"
            )));
        }
        self.thetas = (0..grid)
            .map(|i| lo + (hi - lo) * i as f64 / (grid - 1) as f64)
            .collect();
        self.qualities = Vec::with_capacity(grid);
        self.u_values = Vec::with_capacity(grid);
        for &theta in &self.thetas {
            let (q, u) = self.quality_choice(theta);
            self.qualities.push(q);
            self.u_values.push(u);
        }
        // u(θ) must be non-increasing (envelope theorem); enforce monotonicity against tiny
        // numerical wobbles so the inverse interpolation below is well-defined.
        for i in 1..self.u_values.len() {
            if self.u_values[i] > self.u_values[i - 1] {
                self.u_values[i] = self.u_values[i - 1];
            }
        }

        // Score grid for g(u) and its cumulative integral.
        let u_min = *self.u_values.last().unwrap();
        let u_max = self.u_values[0];
        let points = 512.max(grid);
        if (u_max - u_min).abs() < 1e-15 {
            // Degenerate: all types earn the same maximum score (e.g. cost independent of θ).
            self.u_grid = vec![u_min, u_max + 1e-12];
            self.g_grid = vec![1.0, 1.0];
            self.g_cumulative = vec![0.0, 0.0];
            return self.tabulate_payments();
        }
        self.u_grid = (0..points)
            .map(|i| u_min + (u_max - u_min) * i as f64 / (points - 1) as f64)
            .collect();
        self.g_grid = self
            .u_grid
            .iter()
            .map(|&u| self.win_probability_at(u))
            .collect();
        self.g_cumulative = cumulative_trapezoid(&self.u_grid, &self.g_grid)?;
        self.tabulate_payments()
    }

    /// Fills the `p*(θ_i)` table once the rent machinery exists. At grid points the tabled
    /// value equals [`EquilibriumSolver::payment_for`] exactly (same `q*(θ_i)` and the same
    /// rent); between grid points [`EquilibriumSolver::tabulated_bid_into`] interpolates
    /// linearly.
    fn tabulate_payments(&mut self) -> Result<(), AuctionError> {
        // Before the rents: the Che closed form interpolates `q*(t)` from this table.
        self.flat_qualities = self.qualities.iter().flatten().copied().collect();
        let mut payments = Vec::with_capacity(self.thetas.len());
        for i in 0..self.thetas.len() {
            let theta = self.thetas[i];
            let u = self.u_values[i];
            let c = self.cost.value(&self.qualities[i], theta);
            payments.push(c + self.rent_for(theta, u)?);
        }
        self.payments = payments;
        Ok(())
    }

    /// Che's Theorem 1 quality choice: `q*(θ) = argmax_q s(q) − c(q, θ)`.
    ///
    /// Returns the maximiser and the maximum value `u(θ)`.
    // Out of line on purpose: with only `tabulate` and `solve` calling it the compiler
    // inlines the whole maximisation into both, and the solver build then measures about
    // 10 % slower (2.13 → 2.35 ms at grid 128); every service tenant builds one.
    #[inline(never)]
    pub fn quality_choice(&self, theta: f64) -> (Vec<f64>, f64) {
        let scoring = &self.scoring;
        let cost = &self.cost;
        let (q, u) = maximize_coordinate(
            |q| scoring.value(q) - cost.value(q, theta),
            &self.bounds,
            self.sweeps,
        );
        (q, u)
    }

    #[inline(always)]
    fn check_theta(&self, theta: f64) -> Result<(), AuctionError> {
        if !theta.is_finite() || theta < self.theta.lo - 1e-12 || theta > self.theta.hi + 1e-12 {
            return Err(AuctionError::ThetaOutOfSupport {
                theta,
                lo: self.theta.lo,
                hi: self.theta.hi,
            });
        }
        Ok(())
    }

    /// The maximum attainable score `u(θ)` (interpolated from the tabulated equilibrium).
    pub fn max_score(&self, theta: f64) -> Result<f64, AuctionError> {
        self.check_theta(theta)?;
        Ok(self.interp_theta(&self.u_values, theta))
    }

    #[inline]
    fn interp_theta(&self, values: &[f64], theta: f64) -> f64 {
        let (idx, frac) = self.theta_grid_pos(theta);
        values[idx] + frac * (values[idx + 1] - values[idx])
    }

    /// Grid cell and interpolation fraction of θ on the tabulated grid.
    #[inline(always)]
    fn theta_grid_pos(&self, theta: f64) -> (usize, f64) {
        let (lo, hi) = (self.theta.lo, self.theta.hi);
        let theta = theta.clamp(lo, hi);
        let t = (theta - lo) / (hi - lo) * (self.thetas.len() - 1) as f64;
        let idx = (t.floor() as usize).min(self.thetas.len() - 2);
        (idx, t - idx as f64)
    }

    #[inline(always)]
    fn check_dims(&self, actual: usize) -> Result<(), AuctionError> {
        if actual != self.bounds.len() {
            return Err(AuctionError::DimensionMismatch {
                expected: self.bounds.len(),
                actual,
            });
        }
        Ok(())
    }

    /// Validates θ and the capacity dimension, returning the shared grid position both
    /// tabulated lookups interpolate from.
    #[inline(always)]
    fn checked_grid_pos(&self, theta: f64, capacity: &[f64]) -> Result<(usize, f64), AuctionError> {
        self.check_theta(theta)?;
        self.check_dims(capacity.len())?;
        Ok(self.theta_grid_pos(theta))
    }

    /// `q*(θ)` interpolated at a grid position and clipped component-wise to `capacity`
    /// (which must yield one value per dimension) — the single definition of the
    /// arithmetic behind every tabulated lookup, per bid or batched: `Vec` callers
    /// `extend` from it, the batch tail writes it through the store's column.
    #[inline(always)]
    fn clipped_quality_at<'a>(
        &'a self,
        idx: usize,
        frac: f64,
        capacity: impl Iterator<Item = f64> + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        let dims = self.bounds.len();
        // Two adjacent rows of the row-major table — one contiguous window, no pointer
        // chasing; the zipped iterators make every bounds check vanish.
        let window = &self.flat_qualities[idx * dims..(idx + 2) * dims];
        let (lo_q, hi_q) = window.split_at(dims);
        lo_q.iter()
            .zip(hi_q)
            .zip(capacity)
            .map(move |((&l, &h), c)| (l + frac * (h - l)).min(c).max(0.0))
    }

    /// `p*(θ)` interpolated at a grid position — the linear form of `interp_theta` on an
    /// already-computed grid position.
    #[inline(always)]
    fn ask_at(&self, idx: usize, frac: f64) -> f64 {
        let p = &self.payments[idx..idx + 2];
        p[0] + frac * (p[1] - p[0])
    }

    /// One whole tabulated equilibrium bid — the equilibrium quality `q*(θ)` clipped
    /// component-wise to `capacity` into `out`, plus the returned ask `p*(θ)` — from a
    /// single θ-grid lookup shared by both interpolations: `O(m)` per call, no optimisation
    /// and no quadrature, exact at grid points and linear in between (error `O(grid⁻²)`).
    /// The population-scale twin of [`EquilibriumStrategy::cap`] and
    /// [`EquilibriumSolver::payment_for`]; the per-node form of the bid path whose whole
    /// shards go through [`EquilibriumSolver::tabulated_bids_at`].
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside the support and
    /// [`AuctionError::DimensionMismatch`] when `capacity` has the wrong dimension.
    #[inline(always)]
    pub fn tabulated_bid_into(
        &self,
        theta: f64,
        capacity: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<f64, AuctionError> {
        let (idx, frac) = self.checked_grid_pos(theta, capacity)?;
        out.clear();
        out.extend(self.clipped_quality_at(idx, frac, capacity.iter().copied()));
        Ok(self.ask_at(idx, frac))
    }

    /// Batched twin of the θ grid lookup shared by every tabulated interpolation:
    /// validates all θ values and writes each one's grid cell (as an exact
    /// integer-valued `f64`) and interpolation fraction. The loop body is straight-line
    /// IEEE-exact arithmetic — `clamp`, the support mapping, `floor`, `min` — compiled
    /// under the runtime SIMD tiers, so the per-θ divide and floor vectorise across
    /// lanes while staying bit-identical to the scalar grid lookup.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for the first θ outside `[θ̲, θ̄]`
    /// (including non-finite values); `idx`/`frac` contents are unspecified on error.
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `frac` is not the same length as `thetas`.
    pub fn grid_pos_batch(
        &self,
        thetas: &[f64],
        idx: &mut [f64],
        frac: &mut [f64],
    ) -> Result<(), AuctionError> {
        assert_eq!(thetas.len(), idx.len());
        assert_eq!(thetas.len(), frac.len());
        #[cfg(target_arch = "x86_64")]
        let all_ok = if fmore_numerics::avx512_enabled() {
            // SAFETY: the AVX-512 gate just confirmed the F/DQ/VL subsets at runtime.
            unsafe { grid_pos_batch_avx512(self, thetas, idx, frac) }
        } else if fmore_numerics::avx_enabled() {
            // SAFETY: the AVX gate just confirmed the feature at runtime.
            unsafe { grid_pos_batch_avx(self, thetas, idx, frac) }
        } else {
            self.grid_pos_batch_core(thetas, idx, frac)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let all_ok = self.grid_pos_batch_core(thetas, idx, frac);
        if !all_ok {
            for &theta in thetas {
                self.check_theta(theta)?;
            }
        }
        Ok(())
    }

    /// The generic loop behind [`EquilibriumSolver::grid_pos_batch`]; `inline(always)` so
    /// each `target_feature` wrapper compiles the whole body under its instruction set.
    /// Returns whether every θ passed the support check (branch-free accumulation so the
    /// loop stays vectorisable; the caller rescans scalar on failure for the exact error).
    #[inline(always)]
    fn grid_pos_batch_core(&self, thetas: &[f64], idx: &mut [f64], frac: &mut [f64]) -> bool {
        let (lo, hi) = (self.theta.lo, self.theta.hi);
        let scale = (self.thetas.len() - 1) as f64;
        let last = (self.thetas.len() - 2) as f64;
        let mut all_ok = true;
        for j in 0..thetas.len() {
            let theta = thetas[j];
            // NaN fails both comparisons and ±∞ fails one, so this is `check_theta`'s
            // predicate exactly (finiteness included), accumulated without branching.
            all_ok &= (theta >= lo - 1e-12) & (theta <= hi + 1e-12);
            // Same operations in the same order as `theta_grid_pos`; `min` against the
            // last interior cell replaces the usize `min` bit-for-bit (both operands are
            // exact small integers).
            let t = (theta.clamp(lo, hi) - lo) / (hi - lo) * scale;
            let i = t.floor().min(last);
            idx[j] = i;
            frac[j] = t - i;
        }
        all_ok
    }

    /// One tabulated bid at a θ grid position precomputed by
    /// [`EquilibriumSolver::grid_pos_batch`]: **appends** the capacity-capped quality to
    /// `out` and returns the ask — the per-bid form of
    /// [`EquilibriumSolver::tabulated_bids_at`], same arithmetic. `idx` must be a cell
    /// index the batch lookup produced for this solver (always in range for its grid).
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] when `capacity` has the wrong
    /// dimension; nothing is written on error.
    #[inline(always)]
    pub fn tabulated_bid_append_at(
        &self,
        idx: usize,
        frac: f64,
        capacity: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<f64, AuctionError> {
        self.check_dims(capacity.len())?;
        out.extend(self.clipped_quality_at(idx, frac, capacity.iter().copied()));
        Ok(self.ask_at(idx, frac))
    }

    /// The table tail of the population-scale shard fill: one tabulated bid per grid
    /// position from [`EquilibriumSolver::grid_pos_batch`], written through slices. Bid
    /// `j` reads `capacity[d][j]` (one column per dimension, their number fixed at the
    /// call site so the loop is compiled for it), writes its clipped quality to row `j`
    /// of the row-major `qualities` and its ask to `asks[j]`. The dimension is checked
    /// once; per bid what is left is two adjacent table rows, two payments and the
    /// stores — bit-identical to [`EquilibriumSolver::tabulated_bid_append_at`] per bid.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] when the solver is not
    /// `D`-dimensional; nothing is written on error.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree on the number of bids.
    // Out of line on purpose: as a function of its own its slices are `noalias`
    // parameters; inlined into the shard filler's closure they are loads from a capture
    // struct, the loop reloads them every bid, and a shard fill measures 11.3 instead of
    // 9.9 ns/bid.
    #[inline(never)]
    pub fn tabulated_bids_at<const D: usize>(
        &self,
        idx: &[f64],
        frac: &[f64],
        capacity: [&[f64]; D],
        qualities: &mut [f64],
        asks: &mut [f64],
    ) -> Result<(), AuctionError> {
        self.check_dims(D)?;
        let n = asks.len();
        assert_eq!(qualities.len(), n * D);
        // Every column cut to the one length, so the loop carries no bounds checks.
        let (idx, frac) = (&idx[..n], &frac[..n]);
        let capacity = capacity.map(|column| &column[..n]);
        for (j, row) in (0..n).zip(qualities.chunks_exact_mut(D)) {
            let (i, f) = (idx[j] as usize, frac[j]);
            let capacity: [f64; D] = std::array::from_fn(|d| capacity[d][j]);
            for (out, q) in row
                .iter_mut()
                .zip(self.clipped_quality_at(i, f, capacity.into_iter()))
            {
                *out = q;
            }
            asks[j] = self.ask_at(i, f);
        }
        Ok(())
    }

    /// The per-θ-cell score ceiling of this solver's tabulated bids under `rule` — see
    /// [`ScoreCeiling`]. Cell `i` spans grid points `i` and `i + 1`; its ceiling scores,
    /// under `rule`, the larger of the two `q*` rows in every dimension against the
    /// smaller of the two asks, rounded outward. A suffix maximum then makes the ceilings
    /// non-increasing in θ.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] when `rule` scores a different number
    /// of dimensions than the solver tabulates.
    pub fn score_ceiling(&self, rule: &ScoringRule) -> Result<ScoreCeiling, AuctionError> {
        let dims = self.bounds.len();
        self.check_dims(rule.dims())?;
        let scoring = rule.function();
        let rows = self.flat_qualities.chunks_exact(dims);
        let mut q = vec![0.0; dims];
        let mut cells: Vec<f64> = rows
            .clone()
            .zip(rows.skip(1))
            .zip(self.payments.windows(2))
            .map(|((lo_q, hi_q), p)| {
                // An interpolated component exceeds the larger row by at most 1.5 ε
                // relative, and capping at the capacity only lowers it.
                for ((slot, &l), &h) in q.iter_mut().zip(lo_q).zip(hi_q) {
                    *slot = l.max(h).max(0.0) * (1.0 + 4.0 * f64::EPSILON);
                }
                let (value, ask) = (scoring.value(&q), p[0].min(p[1]));
                // Covers the rounding of the interpolated ask, of the score's subtraction
                // and of a scoring family whose float evaluation is monotone only to an ulp.
                let ceiling = value - ask + 16.0 * f64::EPSILON * (value.abs() + ask.abs());
                if ceiling.is_nan() {
                    f64::INFINITY
                } else {
                    ceiling
                }
            })
            .collect();
        for i in (1..cells.len()).rev() {
            cells[i - 1] = cells[i - 1].max(cells[i]);
        }
        Ok(ScoreCeiling {
            lo: self.theta.lo,
            hi: self.theta.hi,
            scale: (self.thetas.len() - 1) as f64,
            cells,
        })
    }

    /// The opponent-score CDF `H(x) = 1 − F(u⁻¹(x))`.
    pub(crate) fn opponent_score_cdf(&self, x: f64) -> f64 {
        let u_min = *self.u_values.last().unwrap();
        let u_max = self.u_values[0];
        if x <= u_min {
            return 0.0;
        }
        if x >= u_max {
            return 1.0;
        }
        // u is non-increasing over thetas; binary search for θ with u(θ) = x.
        let mut lo = 0usize;
        let mut hi = self.u_values.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.u_values[mid] >= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (u_hi, u_lo) = (self.u_values[lo], self.u_values[hi]);
        let (t_lo, t_hi) = (self.thetas[lo], self.thetas[hi]);
        let frac = if (u_hi - u_lo).abs() < 1e-15 {
            0.0
        } else {
            (u_hi - x) / (u_hi - u_lo)
        };
        let theta_inv = t_lo + frac * (t_hi - t_lo);
        (1.0 - self.theta.cdf(theta_inv)).clamp(0.0, 1.0)
    }

    /// The paper's winning probability `g(u) = Σ_{i=1}^{K} [1−H(u)]^{i−1} [H(u)]^{N−i}`
    /// (Theorem 1, Eq. 9).
    pub(crate) fn win_probability_at(&self, u: f64) -> f64 {
        let h = self.opponent_score_cdf(u);
        let mut sum = 0.0;
        for i in 1..=self.k {
            sum += (1.0 - h).powi(i as i32 - 1) * h.powi((self.n - i) as i32);
        }
        sum.clamp(0.0, 1.0)
    }

    /// The exact rank-based winning probability
    /// `Pr{at most K−1 of the N−1 opponents beat u} = Σ_{i=0}^{K−1} C(N−1, i) [1−H]^i H^{N−1−i}`.
    ///
    /// The paper's Eq. 9 omits the binomial coefficients; this variant keeps them, so a test
    /// can compare the two.
    pub fn win_probability_exact_at(&self, u: f64) -> f64 {
        let h = self.opponent_score_cdf(u);
        let n1 = self.n - 1;
        let mut sum = 0.0;
        let mut binom = 1.0_f64; // C(n-1, 0)
        for i in 0..self.k {
            if i > 0 {
                binom *= (n1 - i + 1) as f64 / i as f64;
            }
            sum += binom * (1.0 - h).powi(i as i32) * h.powi((n1 - i) as i32);
        }
        sum.clamp(0.0, 1.0)
    }

    /// The information rent `∫₀ᵘ g(x) dx / g(u)` at the node's own score `u(θ)`.
    fn information_rent(&self, u: f64) -> f64 {
        let g_u = self.interp_u(&self.g_grid, u);
        if g_u <= 1e-12 {
            return 0.0;
        }
        let integral = self.interp_u(&self.g_cumulative, u);
        integral / g_u
    }

    fn interp_u(&self, values: &[f64], u: f64) -> f64 {
        let u_min = self.u_grid[0];
        let u_max = *self.u_grid.last().unwrap();
        if u <= u_min {
            return values[0];
        }
        if u >= u_max {
            return *values.last().unwrap();
        }
        let t = (u - u_min) / (u_max - u_min) * (self.u_grid.len() - 1) as f64;
        let idx = (t.floor() as usize).min(self.u_grid.len() - 2);
        let frac = t - idx as f64;
        values[idx] + frac * (values[idx + 1] - values[idx])
    }

    /// The one exact solve behind every per-θ entry point: a support check, **one**
    /// coordinate maximisation for `(q*, u)`, the cost at `q*`, and the information rent.
    fn solve(&self, theta: f64) -> Result<Solved, AuctionError> {
        self.check_theta(theta)?;
        let (quality, max_score) = self.quality_choice(theta);
        let cost = self.cost.value(&quality, theta);
        let ask = cost + self.rent_for(theta, max_score)?;
        Ok(Solved {
            quality,
            max_score,
            cost,
            ask,
        })
    }

    /// Solves the equilibrium strategy `(q*(θ), p*(θ))` of a node with private parameter θ
    /// — the expensive step (a coordinate maximisation plus the rent), done once per node;
    /// [`EquilibriumStrategy::cap`] then turns it into each round's bid.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside `[θ̲, θ̄]`.
    pub fn strategy_for(&self, theta: f64) -> Result<EquilibriumStrategy, AuctionError> {
        let Solved { quality, ask, .. } = self.solve(theta)?;
        Ok(EquilibriumStrategy { quality, ask })
    }

    /// Computes the equilibrium payment `p*(θ)` with the configured [`PaymentMethod`].
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside `[θ̲, θ̄]`.
    pub fn payment_for(&self, theta: f64) -> Result<f64, AuctionError> {
        Ok(self.solve(theta)?.ask)
    }

    /// Information rent at `(θ, u(θ))` under the configured [`PaymentMethod`].
    fn rent_for(&self, theta: f64, u: f64) -> Result<f64, AuctionError> {
        Ok(match self.payment_method {
            PaymentMethod::Quadrature => self.information_rent(u),
            PaymentMethod::Euler { steps } => self.information_rent_euler(u, steps),
            PaymentMethod::CheClosedForm => self.che_closed_form_rent(theta)?,
        })
    }

    /// Information rent via the Euler ODE route of the paper (Algorithm 1, line 7):
    /// integrate `b'(u) = φ(u)(u − b(u))` with `φ(u) = g'(u)/g(u)` from `u_min` upwards, then
    /// the rent is `u − b(u)`.
    fn information_rent_euler(&self, u: f64, steps: usize) -> f64 {
        let u_min = self.u_grid[0];
        if u <= u_min {
            return 0.0;
        }
        let h = (u - u_min) / steps as f64;
        let mut b = u_min;
        let mut x = u_min;
        for _ in 0..steps {
            let g = self.interp_u(&self.g_grid, x).max(1e-12);
            let g_next = self.interp_u(&self.g_grid, x + h).max(1e-12);
            let phi = (g_next - g) / (h * g);
            b += h * phi * (x - b);
            x += h;
        }
        (u - b).max(0.0)
    }

    /// Information rent via Che's Theorem 2 (`K = 1`) or Proposition 1 (`K = 2`):
    /// `∫_θ^θ̄ c_θ(q*(t), t) ((1−F(t))/(1−F(θ)))^{N−K} dt`.
    fn che_closed_form_rent(&self, theta: f64) -> Result<f64, AuctionError> {
        let exponent = (self.n - self.k) as f64;
        let one_minus_f_theta = (1.0 - self.theta.cdf(theta)).max(1e-12);
        let hi = self.theta.hi;
        if theta >= hi {
            return Ok(0.0);
        }
        let mut q = Vec::with_capacity(self.bounds.len());
        let integral = trapezoid(
            |t| {
                self.interp_quality_into(t, &mut q);
                let ratio = ((1.0 - self.theta.cdf(t)) / one_minus_f_theta).max(0.0);
                self.cost.dtheta(&q, t) * ratio.powf(exponent)
            },
            theta,
            hi,
            400,
        )?;
        Ok(integral)
    }

    /// `q*(θ)` interpolated between the two grid rows around θ, written into `out` — the
    /// same linear form as [`EquilibriumSolver::interp_theta`] per dimension, from one grid
    /// position.
    fn interp_quality_into(&self, theta: f64, out: &mut Vec<f64>) {
        let dims = self.bounds.len();
        let (idx, frac) = self.theta_grid_pos(theta);
        let (lo_q, hi_q) = self.flat_qualities[idx * dims..(idx + 2) * dims].split_at(dims);
        out.clear();
        out.extend(lo_q.iter().zip(hi_q).map(|(&l, &h)| l + frac * (h - l)));
    }

    /// Computes the full Nash-equilibrium bid for a node with private parameter θ.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside `[θ̲, θ̄]`.
    pub fn bid_for(&self, theta: f64) -> Result<EquilibriumBid, AuctionError> {
        let Solved {
            quality,
            max_score,
            cost,
            ask,
        } = self.solve(theta)?;
        let win = self.win_probability_at(max_score);
        let s = self.scoring.value(&quality);
        Ok(EquilibriumBid {
            quality: Quality::new(quality),
            ask,
            max_score,
            score: s - ask,
            win_probability: win,
            expected_profit: (ask - cost) * win,
        })
    }

    /// Expected equilibrium profit `π(θ) = (p* − c) · g(u)` of a node with parameter θ.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside `[θ̲, θ̄]`.
    pub(crate) fn expected_profit(&self, theta: f64) -> Result<f64, AuctionError> {
        Ok(self.bid_for(theta)?.expected_profit)
    }

    /// The sealed bid of a node whose realised capacity caps its declared quality —
    /// [`EquilibriumSolver::strategy_for`] then [`EquilibriumStrategy::cap`] in one step,
    /// for callers that meet each θ once (the one-shot `collect_bids` of the round engine,
    /// and the tests that check a held strategy against it). A caller that keeps its nodes
    /// across rounds keeps each node's strategy instead and only caps it per round.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::ThetaOutOfSupport`] for θ outside `[θ̲, θ̄]` and
    /// [`AuctionError::DimensionMismatch`] when `capacity` has the wrong dimension.
    pub fn capped_bid(
        &self,
        node: NodeId,
        theta: f64,
        capacity: &[f64],
    ) -> Result<SubmittedBid, AuctionError> {
        self.strategy_for(theta)?.cap(node, capacity)
    }
}

/// An upper bound, per cell of an [`EquilibriumSolver`]'s θ grid, on the score under one
/// [`ScoringRule`] of any tabulated bid whose θ falls in that cell — whatever capacity the
/// bid is capped to ([`EquilibriumSolver::score_ceiling`]). Capping only lowers a quality
/// and every scoring family is non-decreasing in each, so the bound needs θ alone.
///
/// The ceilings never rise with θ, so the cells whose ceiling reaches a given score form a
/// prefix of the grid, and one θ ([`ScoreCeiling::cut`], where the grid coordinate leaves
/// that prefix) separates the θ values that may still reach it from those that cannot.
/// The population's shard pipeline uses that to omit, before deriving anything but θ, the
/// bids that cannot beat the round's best dropped score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCeiling {
    lo: f64,
    hi: f64,
    /// Number of grid cells: the grid coordinate of θ̄.
    scale: f64,
    /// One ceiling per grid cell, non-increasing.
    cells: Vec<f64>,
}

impl ScoreCeiling {
    /// θ's coordinate on the solver's grid: the value whose floor (capped at the last
    /// cell) is the cell [`EquilibriumSolver::grid_pos_batch`] looks θ up in — the same
    /// operations in the same order, so the same bits.
    fn grid_coordinate(&self, theta: f64) -> f64 {
        (theta.clamp(self.lo, self.hi) - self.lo) / (self.hi - self.lo) * self.scale
    }

    /// Whether θ passes the solver's support check. A θ that fails it is never omitted,
    /// so the fill reports it as the unpruned fill would.
    #[inline(always)]
    pub fn in_support(&self, theta: f64) -> bool {
        (theta >= self.lo - 1e-12) & (theta <= self.hi + 1e-12)
    }

    /// The cut for an omit bound, as a θ: a θ below the returned value may reach a score
    /// of `bound` or more, a θ at or above it (inside the support) cannot. `None` when
    /// every cell may reach it (then nothing can be omitted; a NaN bound omits nothing
    /// either).
    ///
    /// The cells that may reach the bound are the first `reach`, so the cut is the least
    /// θ whose grid coordinate is `reach` or more. That coordinate is
    /// non-decreasing in θ (every step of it rounds monotonically), so a bisection over
    /// the bit patterns of the positive floats in `[θ̲, θ̄]` finds the cut exactly, and a
    /// shard's pre-pass compares θ alone.
    pub fn cut(&self, bound: f64) -> Option<f64> {
        let reach = self.cells.partition_point(|&ceiling| ceiling >= bound);
        if reach == self.cells.len() || bound.is_nan() {
            return None;
        }
        let reaches = |bits: u64| self.grid_coordinate(f64::from_bits(bits)) >= reach as f64;
        // θ̄ sits at coordinate `cells ≥ reach + 1`, so `hi` always satisfies `reaches`.
        let (mut lo, mut hi) = (self.lo.to_bits(), self.hi.to_bits());
        if reaches(lo) {
            return Some(self.lo);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(f64::from_bits(hi))
    }
}

/// What [`EquilibriumSolver::solve`] computes for one θ.
struct Solved {
    /// `q*(θ)`.
    quality: Vec<f64>,
    /// `u(θ) = s(q*) − c(q*, θ)`.
    max_score: f64,
    /// `c(q*, θ)`.
    cost: f64,
    /// `p*(θ) = c(q*, θ) + rent`.
    ask: f64,
}

/// AVX-compiled twin of [`EquilibriumSolver::grid_pos_batch_core`] — identical code under
/// `target_feature(enable = "avx")`, bit-identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn grid_pos_batch_avx(
    solver: &EquilibriumSolver,
    thetas: &[f64],
    idx: &mut [f64],
    frac: &mut [f64],
) -> bool {
    solver.grid_pos_batch_core(thetas, idx, frac)
}

/// AVX-512-compiled twin of [`EquilibriumSolver::grid_pos_batch_core`] — 8-wide f64
/// lanes for the per-θ divide and floor, bit-identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn grid_pos_batch_avx512(
    solver: &EquilibriumSolver,
    thetas: &[f64],
    idx: &mut [f64],
    frac: &mut [f64],
) -> bool {
    solver.grid_pos_batch_core(thetas, idx, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LinearCost, QuadraticCost};
    use crate::scoring::{Additive, CobbDouglas};
    use fmore_numerics::UniformDist;

    fn simple_solver(n: usize, k: usize, method: PaymentMethod) -> EquilibriumSolver {
        EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(QuadraticCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.2, 1.0).unwrap())
            .bounds(vec![(0.0, 5.0)])
            .population(n)
            .winners(k)
            .payment_method(method)
            .grid_size(256)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_inputs() {
        // Missing components.
        assert!(EquilibriumSolver::builder().build().is_err());
        // K > N.
        let err = EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(LinearCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.1, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0)])
            .population(3)
            .winners(5)
            .build()
            .unwrap_err();
        assert!(matches!(err, AuctionError::InvalidGame { n: 3, k: 5 }));
        // Dimension mismatch between bounds and scoring.
        assert!(EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0, 1.0]).unwrap())
            .cost(LinearCost::new(vec![1.0, 1.0]).unwrap())
            .theta(UniformDist::new(0.1, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0)])
            .population(10)
            .winners(2)
            .build()
            .is_err());
        // Che closed form limited to K <= 2.
        assert!(EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(LinearCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.1, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0)])
            .population(10)
            .winners(3)
            .payment_method(PaymentMethod::CheClosedForm)
            .build()
            .is_err());
        // Euler with zero steps.
        assert!(EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(LinearCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.1, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0)])
            .population(10)
            .winners(2)
            .payment_method(PaymentMethod::Euler { steps: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn quality_choice_matches_analytic_solution() {
        // s(q) = q, c(q, θ) = θ q² => q* = 1/(2θ), u = 1/(4θ).
        let solver = simple_solver(10, 1, PaymentMethod::Quadrature);
        for theta in [0.25, 0.5, 0.8] {
            let (q, u) = solver.quality_choice(theta);
            assert!(
                (q[0] - 1.0 / (2.0 * theta)).abs() < 1e-3,
                "theta={theta} q={:?}",
                q
            );
            assert!(
                (u - 1.0 / (4.0 * theta)).abs() < 1e-3,
                "theta={theta} u={u}"
            );
        }
    }

    #[test]
    fn quality_is_decreasing_in_theta() {
        let solver = simple_solver(20, 4, PaymentMethod::Quadrature);
        let (q_low, _) = solver.quality_choice(0.25);
        let (q_mid, _) = solver.quality_choice(0.5);
        let (q_high, _) = solver.quality_choice(0.95);
        assert!(q_low[0] > q_mid[0]);
        assert!(q_mid[0] > q_high[0]);
    }

    #[test]
    fn payment_covers_cost_and_is_ir() {
        let solver = simple_solver(30, 5, PaymentMethod::Quadrature);
        for theta in [0.2, 0.35, 0.5, 0.75, 1.0] {
            let bid = solver.bid_for(theta).unwrap();
            let c = QuadraticCost::new(vec![1.0])
                .unwrap()
                .value(bid.quality.as_slice(), theta);
            assert!(
                bid.ask >= c - 1e-9,
                "θ={theta}: ask {} below cost {c}",
                bid.ask
            );
            assert!(bid.expected_profit >= -1e-9);
        }
    }

    #[test]
    fn lower_theta_types_bid_higher_scores_and_win_more() {
        let solver = simple_solver(50, 10, PaymentMethod::Quadrature);
        let good = solver.bid_for(0.25).unwrap();
        let bad = solver.bid_for(0.9).unwrap();
        assert!(good.max_score > bad.max_score);
        assert!(good.win_probability >= bad.win_probability);
        assert!(good.expected_profit >= bad.expected_profit);
    }

    #[test]
    fn worst_type_earns_zero_profit() {
        let solver = simple_solver(40, 8, PaymentMethod::Quadrature);
        let bid = solver.bid_for(1.0).unwrap();
        assert!(bid.expected_profit.abs() < 1e-6);
    }

    #[test]
    fn opponent_score_cdf_is_monotone_and_bounded() {
        let solver = simple_solver(25, 5, PaymentMethod::Quadrature);
        let (u_lo, u_hi) = {
            let (_, u_best) = solver.quality_choice(0.2);
            let (_, u_worst) = solver.quality_choice(1.0);
            (u_worst, u_best)
        };
        assert_eq!(solver.opponent_score_cdf(u_lo - 1.0), 0.0);
        assert_eq!(solver.opponent_score_cdf(u_hi + 1.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = u_lo + (u_hi - u_lo) * i as f64 / 20.0;
            let h = solver.opponent_score_cdf(x);
            assert!(h >= prev - 1e-9, "H must be non-decreasing");
            assert!((0.0..=1.0).contains(&h));
            prev = h;
        }
    }

    #[test]
    fn win_probability_increases_with_score() {
        let solver = simple_solver(25, 5, PaymentMethod::Quadrature);
        let low = solver.win_probability_at(solver.max_score(0.9).unwrap());
        let high = solver.win_probability_at(solver.max_score(0.3).unwrap());
        assert!(high >= low);
        // Exact variant is at least as large as the paper's approximation (binomial
        // coefficients are >= 1) and also in [0, 1].
        let u = solver.max_score(0.4).unwrap();
        let paper = solver.win_probability_at(u);
        let exact = solver.win_probability_exact_at(u);
        assert!(exact >= paper - 1e-12);
        assert!((0.0..=1.0).contains(&exact));
    }

    #[test]
    fn euler_and_quadrature_payments_agree() {
        // Compare in the region where the winning probability is non-negligible; in the far
        // tail (θ close to θ̄ with K/N small) g(u) underflows and the rent is numerically
        // irrelevant because such types never win.
        let quad = simple_solver(30, 6, PaymentMethod::Quadrature);
        let euler = simple_solver(30, 6, PaymentMethod::Euler { steps: 4000 });
        for theta in [0.25, 0.35, 0.45] {
            let p_q = quad.payment_for(theta).unwrap();
            let p_e = euler.payment_for(theta).unwrap();
            let denom = p_q.abs().max(1e-6);
            assert!(
                (p_q - p_e).abs() / denom < 0.05,
                "θ={theta}: quadrature {p_q} vs euler {p_e}"
            );
        }
    }

    #[test]
    fn quadrature_matches_che_closed_form_for_one_winner() {
        let quad = simple_solver(12, 1, PaymentMethod::Quadrature);
        let che = simple_solver(12, 1, PaymentMethod::CheClosedForm);
        for theta in [0.25, 0.5, 0.75] {
            let p_q = quad.payment_for(theta).unwrap();
            let p_c = che.payment_for(theta).unwrap();
            assert!(
                (p_q - p_c).abs() / p_c.max(1e-6) < 0.08,
                "θ={theta}: quadrature {p_q} vs Che {p_c}"
            );
        }
    }

    #[test]
    fn quadrature_matches_proposition1_for_two_winners() {
        let quad = simple_solver(12, 2, PaymentMethod::Quadrature);
        let che = simple_solver(12, 2, PaymentMethod::CheClosedForm);
        for theta in [0.3, 0.6] {
            let p_q = quad.payment_for(theta).unwrap();
            let p_c = che.payment_for(theta).unwrap();
            assert!(
                (p_q - p_c).abs() / p_c.max(1e-6) < 0.10,
                "θ={theta}: quadrature {p_q} vs Prop.1 {p_c}"
            );
        }
    }

    #[test]
    fn theorem2_profit_decreases_with_population() {
        // Expected profit is a decreasing function of N (paper Theorem 2).
        let theta = 0.4;
        let profits: Vec<f64> = [10, 20, 40, 80]
            .iter()
            .map(|&n| {
                simple_solver(n, 5, PaymentMethod::Quadrature)
                    .expected_profit(theta)
                    .unwrap()
            })
            .collect();
        for w in profits.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "profit should fall with N: {profits:?}"
            );
        }
    }

    #[test]
    fn theorem3_profit_increases_with_winner_count() {
        // Expected profit is an increasing function of K (paper Theorem 3).
        let theta = 0.4;
        let profits: Vec<f64> = [1, 5, 10, 20]
            .iter()
            .map(|&k| {
                simple_solver(40, k, PaymentMethod::Quadrature)
                    .expected_profit(theta)
                    .unwrap()
            })
            .collect();
        for w in profits.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "profit should rise with K: {profits:?}"
            );
        }
    }

    #[test]
    fn theta_out_of_support_is_rejected() {
        let solver = simple_solver(10, 2, PaymentMethod::Quadrature);
        assert!(matches!(
            solver.bid_for(5.0),
            Err(AuctionError::ThetaOutOfSupport { .. })
        ));
        assert!(solver.payment_for(0.05).is_err());
        assert!(solver.max_score(f64::NAN).is_err());
    }

    fn two_dim_solver(method: PaymentMethod, k: usize) -> EquilibriumSolver {
        EquilibriumSolver::builder()
            .scoring(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap())
            .cost(LinearCost::new(vec![10.0, 5.0]).unwrap())
            .theta(UniformDist::new(0.2, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0), (0.0, 1.0)])
            .population(12)
            .winners(k)
            .payment_method(method)
            .grid_size(64)
            .build()
            .unwrap()
    }

    /// The batched table tail against the per-bid forms it shares its arithmetic with:
    /// the same bits as `tabulated_bid_append_at` at the batch's grid positions and as
    /// `tabulated_bid_into` from θ, and a typed error that writes nothing when the column
    /// count is not the solver's dimension.
    #[test]
    fn batched_table_tail_matches_the_per_bid_lookups_bitwise() {
        let solver = two_dim_solver(PaymentMethod::Quadrature, 3);
        let n = 37;
        let thetas: Vec<f64> = (0..n)
            .map(|j| 0.2 + 0.8 * j as f64 / (n - 1) as f64)
            .collect();
        // Capacities on both sides of the equilibrium quality, so some rows clip.
        let c0: Vec<f64> = (0..n).map(|j| (j % 5) as f64 / 4.0).collect();
        let c1: Vec<f64> = (0..n).map(|j| (j % 3) as f64 / 2.0).collect();
        let (mut idx, mut frac) = (vec![0.0; n], vec![0.0; n]);
        solver.grid_pos_batch(&thetas, &mut idx, &mut frac).unwrap();
        let (mut qualities, mut asks) = (vec![f64::NAN; 2 * n], vec![f64::NAN; n]);
        solver
            .tabulated_bids_at(&idx, &frac, [&c0, &c1], &mut qualities, &mut asks)
            .unwrap();
        let (mut appended, mut from_theta) = (Vec::new(), Vec::new());
        for j in 0..n {
            let capacity = [c0[j], c1[j]];
            appended.clear();
            let ask = solver
                .tabulated_bid_append_at(idx[j] as usize, frac[j], &capacity, &mut appended)
                .unwrap();
            let ask_from_theta = solver
                .tabulated_bid_into(thetas[j], &capacity, &mut from_theta)
                .unwrap();
            assert_eq!(asks[j].to_bits(), ask.to_bits());
            assert_eq!(asks[j].to_bits(), ask_from_theta.to_bits());
            for d in 0..2 {
                assert_eq!(qualities[2 * j + d].to_bits(), appended[d].to_bits());
                assert_eq!(qualities[2 * j + d].to_bits(), from_theta[d].to_bits());
            }
        }
        assert!(qualities.chunks(2).zip(&c0).any(|(q, c)| q[0] == *c));

        let before = asks.clone();
        let mismatch = solver.tabulated_bids_at(&idx, &frac, [&c0], &mut qualities[..n], &mut asks);
        assert_eq!(
            mismatch,
            Err(AuctionError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(asks, before);
    }

    #[test]
    fn every_exact_entry_point_reads_the_same_solve() {
        let solver = two_dim_solver(PaymentMethod::Quadrature, 3);
        for theta in [0.2, 0.37, 0.81, 1.0] {
            let strategy = solver.strategy_for(theta).unwrap();
            let (q, u) = solver.quality_choice(theta);
            let bid = solver.bid_for(theta).unwrap();
            assert_eq!(strategy.quality, q);
            assert_eq!(bid.quality.as_slice(), q.as_slice());
            assert_eq!(bid.max_score.to_bits(), u.to_bits());
            let ask = solver.payment_for(theta).unwrap();
            assert_eq!(strategy.ask.to_bits(), ask.to_bits());
            assert_eq!(bid.ask.to_bits(), ask.to_bits());
            // A generous capacity leaves the strategy untouched; a tight one clips it.
            let roomy = strategy.cap(NodeId(7), &[2.0, 2.0]).unwrap();
            assert_eq!(roomy.quality.as_slice(), q.as_slice());
            let tight = solver.capped_bid(NodeId(7), theta, &[0.0, 2.0]).unwrap();
            assert_eq!(tight.quality.as_slice(), &[0.0, q[1]]);
            assert_eq!(tight.ask.to_bits(), ask.to_bits());
        }
    }

    #[test]
    fn cap_rejects_a_capacity_of_the_wrong_dimension() {
        let solver = two_dim_solver(PaymentMethod::Quadrature, 3);
        let strategy = solver.strategy_for(0.5).unwrap();
        for capacity in [&[0.5][..], &[0.5, 0.5, 0.5][..], &[][..]] {
            let expected = AuctionError::DimensionMismatch {
                expected: 2,
                actual: capacity.len(),
            };
            assert_eq!(strategy.cap(NodeId(0), capacity), Err(expected.clone()));
            assert_eq!(solver.capped_bid(NodeId(0), 0.5, capacity), Err(expected));
        }
        // θ is judged before the capacity, as in the tabulated twins.
        assert!(matches!(
            solver.capped_bid(NodeId(0), 5.0, &[0.5]),
            Err(AuctionError::ThetaOutOfSupport { .. })
        ));
    }

    #[test]
    fn che_rent_interpolation_matches_the_columnwise_reference_bitwise() {
        // The reference is the form this replaced: one gathered column per dimension,
        // interpolated through `interp_theta`.
        let solver = two_dim_solver(PaymentMethod::CheClosedForm, 2);
        let mut q = Vec::new();
        for i in 0..=1000 {
            let theta = 0.2 + 0.8 * i as f64 / 1000.0;
            solver.interp_quality_into(theta, &mut q);
            for (d, got) in q.iter().enumerate() {
                let column: Vec<f64> = solver.qualities.iter().map(|row| row[d]).collect();
                let want = solver.interp_theta(&column, theta);
                assert_eq!(got.to_bits(), want.to_bits(), "θ={theta} dim {d}");
            }
        }
    }

    #[test]
    fn multidimensional_cobb_douglas_equilibrium_is_consistent() {
        // The simulator configuration: s(q1, q2) = 25 q1 q2 over [0,1]² with linear cost.
        let solver = EquilibriumSolver::builder()
            .scoring(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap())
            .cost(LinearCost::new(vec![10.0, 5.0]).unwrap())
            .theta(UniformDist::new(0.2, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0), (0.0, 1.0)])
            .population(100)
            .winners(20)
            .grid_size(128)
            .build()
            .unwrap();
        let bid = solver.bid_for(0.5).unwrap();
        assert_eq!(bid.quality.dims(), 2);
        assert!(bid.quality.is_valid());
        assert!(bid.max_score > 0.0);
        assert!(bid.ask > 0.0);
        // Score reported to the aggregator never exceeds the node's maximum attainable score.
        assert!(bid.score <= bid.max_score + 1e-9);
        // Debug formatting mentions the configuration.
        let dbg = format!("{solver:?}");
        assert!(dbg.contains("cobb-douglas") && dbg.contains("n: 100"));
    }

    #[test]
    fn accessors_report_configuration() {
        let solver = simple_solver(15, 3, PaymentMethod::Quadrature);
        assert_eq!(solver.n, 15);
        assert_eq!(solver.k, 3);
        let (lo, hi) = solver.theta_support();
        assert_eq!((lo, hi), (0.2, 1.0));
        assert_eq!(solver.bounds, [(0.0, 5.0)]);
    }
}
