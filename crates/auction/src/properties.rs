//! Executable checks of the paper's mechanism-design guarantees (Section IV).
//!
//! The theorems and propositions of the paper are not just documented — each one is exposed
//! as a function the unit, integration and property tests can run:
//!
//! * [`is_individually_rational`] — the IR constraint `π_i(q, p) ≥ 0`,
//! * [`incentive_compatibility_holds`] — Theorem 5: under-declaring quality can never raise a
//!   node's score (and hence its winning probability),
//! * [`social_surplus`] — the quantity maximised by a Pareto-efficient mechanism (Theorem 4),
//! * [`profit_decreases_with_population`] / [`profit_increases_with_winners`] — Theorems 2
//!   and 3,
//! * [`psi_preserves_win_probability_for_identical_types`] — Proposition 2,
//! * [`cobb_douglas_resource_ratio`] — the aggregator guidance of Proposition 4.

use crate::cost::CostFunction;
use crate::equilibrium::EquilibriumSolver;
use crate::error::AuctionError;
use crate::mechanism::Award;
use crate::scoring::ScoringFunction;
use crate::types::Quality;

/// Individual rationality: a node only participates when its profit `p − c(q, θ)` is
/// non-negative (Section III-A, bid collection).
pub fn is_individually_rational<C: CostFunction>(
    quality: &Quality,
    payment: f64,
    cost: &C,
    theta: f64,
) -> bool {
    match cost.evaluate(quality.as_slice(), theta) {
        Ok(c) => payment - c >= -1e-9,
        Err(_) => false,
    }
}

/// Theorem 5 (incentive compatibility): declaring a lower quality than the equilibrium
/// quality `q*` strictly lowers the bid's score and therefore its winning probability, so
/// misreporting cannot pay off.
///
/// `misreport_factors` are multiplicative down-scalings applied to `q*` (values in `(0, 1)`).
/// Returns `true` if, for every factor, the truthful score is at least the misreported score.
///
/// # Errors
///
/// Propagates errors from the equilibrium solver (e.g. θ outside the support).
pub fn incentive_compatibility_holds<S: ScoringFunction>(
    solver: &EquilibriumSolver,
    scoring: &S,
    theta: f64,
    misreport_factors: &[f64],
) -> Result<bool, AuctionError> {
    let truthful = solver.bid_for(theta)?;
    let truthful_score = scoring.evaluate(truthful.quality.as_slice())? - truthful.ask;
    for &factor in misreport_factors {
        if !(0.0..1.0).contains(&factor) {
            return Err(AuctionError::InvalidParameter(format!(
                "misreport factor {factor} must lie in (0, 1)"
            )));
        }
        let misreported = truthful.quality.scaled(factor);
        let misreported_score = scoring.evaluate(misreported.as_slice())? - truthful.ask;
        if misreported_score > truthful_score + 1e-9 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Social surplus `SS = Σ_{i ∈ W} (s(q_i) − c(q_i, θ_i))` of an auction outcome
/// (Theorem 4). Pareto efficiency of FMore is equivalent to this quantity being maximised,
/// which holds because every winner's quality maximises `s(q) − c(q, θ)` individually.
///
/// `thetas[i]` must be the private parameter of the node that received `awards[i]`.
///
/// # Errors
///
/// Returns an error if the lengths differ or a quality vector has the wrong dimensions.
pub fn social_surplus<S: ScoringFunction, C: CostFunction>(
    awards: &[Award],
    thetas: &[f64],
    scoring: &S,
    cost: &C,
) -> Result<f64, AuctionError> {
    if awards.len() != thetas.len() {
        return Err(AuctionError::InvalidParameter(format!(
            "{} awards but {} theta values",
            awards.len(),
            thetas.len()
        )));
    }
    let mut total = 0.0;
    for (award, &theta) in awards.iter().zip(thetas) {
        total += scoring.evaluate(award.quality.as_slice())?
            - cost.evaluate(award.quality.as_slice(), theta)?;
    }
    Ok(total)
}

/// Theorem 2: the expected equilibrium profit of a fixed type θ is non-increasing in the
/// total number of nodes `N`. `solvers` must share every configuration parameter except `N`
/// and be ordered by increasing `N`.
///
/// # Errors
///
/// Propagates solver errors.
pub fn profit_decreases_with_population(
    solvers: &[EquilibriumSolver],
    theta: f64,
    tolerance: f64,
) -> Result<bool, AuctionError> {
    let mut profits = Vec::with_capacity(solvers.len());
    for s in solvers {
        profits.push(s.expected_profit(theta)?);
    }
    Ok(profits.windows(2).all(|w| w[1] <= w[0] + tolerance))
}

/// Theorem 3: the expected equilibrium profit of a fixed type θ is non-decreasing in the
/// number of winners `K`. `solvers` must share every configuration parameter except `K` and
/// be ordered by increasing `K`.
///
/// # Errors
///
/// Propagates solver errors.
pub fn profit_increases_with_winners(
    solvers: &[EquilibriumSolver],
    theta: f64,
    tolerance: f64,
) -> Result<bool, AuctionError> {
    let mut profits = Vec::with_capacity(solvers.len());
    for s in solvers {
        profits.push(s.expected_profit(theta)?);
    }
    Ok(profits.windows(2).all(|w| w[1] >= w[0] - tolerance))
}

/// Proposition 2: when all participators share the same private value θ (hence the same
/// score), selecting `K` of `N` with or without the per-node admission probability ψ leaves
/// each node's winning probability at `K/N`.
///
/// Returns the pair `(analytic, simulated)` winning probabilities for one node so tests can
/// assert they agree; the simulation runs `trials` ψ-FMore selections over `n` identically
/// scored nodes.
pub fn psi_preserves_win_probability_for_identical_types(
    n: usize,
    k: usize,
    psi: f64,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    use crate::types::{NodeId, ScoredBid};
    use crate::winner::SelectionRule;

    let analytic = k as f64 / n as f64;
    let bids: Vec<ScoredBid> = (0..n)
        .map(|i| ScoredBid {
            node: NodeId(i as u64),
            quality: Quality::default(),
            ask: 0.0,
            score: 1.0,
        })
        .collect();
    let rule = SelectionRule::PsiFMore { psi };
    let mut rng = fmore_numerics::seeded_rng(seed);
    let mut wins_node0 = 0usize;
    for _ in 0..trials {
        // Shuffle to model the random tie-break among identical scores, then select.
        let mut shuffled = bids.clone();
        fmore_numerics::rng::shuffle(&mut shuffled, &mut rng);
        let winners = rule.select_indices(shuffled.len(), k, &mut rng);
        if winners.iter().any(|&idx| shuffled[idx].node == NodeId(0)) {
            wins_node0 += 1;
        }
    }
    (analytic, wins_node0 as f64 / trials.max(1) as f64)
}

/// Proposition 4: with Cobb–Douglas utility `s(q) = Π qi^αi` (`Σ αi = 1`) and additive cost
/// `c(q) = θ Σ β̃i qi`, the aggregator receives resources in the proportion
/// `q_i / q_j = (α_i / α_j) · (β̃_j / β̃_i)`.
///
/// Returns the matrix of optimal ratios `ratio[i][j] = q_i* / q_j*`.
///
/// # Errors
///
/// Returns [`AuctionError::InvalidParameter`] for empty or non-positive inputs or mismatched
/// lengths.
pub fn cobb_douglas_resource_ratio(
    alphas: &[f64],
    betas: &[f64],
) -> Result<Vec<Vec<f64>>, AuctionError> {
    if alphas.is_empty() || alphas.len() != betas.len() {
        return Err(AuctionError::InvalidParameter(
            "alpha and beta vectors must be non-empty and of equal length".into(),
        ));
    }
    if alphas
        .iter()
        .chain(betas.iter())
        .any(|v| !v.is_finite() || *v <= 0.0)
    {
        return Err(AuctionError::InvalidParameter(
            "alpha and beta coefficients must be positive".into(),
        ));
    }
    let m = alphas.len();
    let mut ratios = vec![vec![0.0; m]; m];
    for i in 0..m {
        for j in 0..m {
            ratios[i][j] = (alphas[i] / alphas[j]) * (betas[j] / betas[i]);
        }
    }
    Ok(ratios)
}

/// Solves the aggregator's Proposition-4 budget allocation directly: maximise
/// `Π qi^αi` subject to `θ Σ β̃i qi = budget`. The Lagrangian solution is
/// `q_i* = α_i · budget / (θ β̃_i Σ α)`, returned here so tests can confirm the ratio matrix.
///
/// # Errors
///
/// Same validation as [`cobb_douglas_resource_ratio`], plus positivity of `budget` and `theta`.
pub fn cobb_douglas_optimal_quantities(
    alphas: &[f64],
    betas: &[f64],
    theta: f64,
    budget: f64,
) -> Result<Vec<f64>, AuctionError> {
    if theta <= 0.0 || budget <= 0.0 || !theta.is_finite() || !budget.is_finite() {
        return Err(AuctionError::InvalidParameter(
            "theta and budget must be positive and finite".into(),
        ));
    }
    // Validate via the ratio helper.
    let _ = cobb_douglas_resource_ratio(alphas, betas)?;
    let alpha_sum: f64 = alphas.iter().sum();
    Ok(alphas
        .iter()
        .zip(betas)
        .map(|(a, b)| a * budget / (theta * b * alpha_sum))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LinearCost, QuadraticCost};
    use crate::equilibrium::{EquilibriumSolver, PaymentMethod};
    use crate::scoring::Additive;
    use crate::types::NodeId;
    use fmore_numerics::UniformDist;

    fn solver(n: usize, k: usize) -> EquilibriumSolver {
        EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(QuadraticCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.2, 1.0).unwrap())
            .bounds(vec![(0.0, 5.0)])
            .population(n)
            .winners(k)
            .payment_method(PaymentMethod::Quadrature)
            .grid_size(128)
            .build()
            .unwrap()
    }

    #[test]
    fn equilibrium_bids_are_individually_rational() {
        let s = solver(30, 6);
        let cost = QuadraticCost::new(vec![1.0]).unwrap();
        for theta in [0.25, 0.5, 0.75, 1.0] {
            let bid = s.bid_for(theta).unwrap();
            assert!(is_individually_rational(
                &bid.quality,
                bid.ask,
                &cost,
                theta
            ));
        }
        // A payment below cost violates IR.
        let bid = s.bid_for(0.5).unwrap();
        assert!(!is_individually_rational(&bid.quality, 0.0, &cost, 0.5));
        // Dimension mismatch is treated as a violation rather than a panic.
        let bad_cost = QuadraticCost::new(vec![1.0, 1.0]).unwrap();
        assert!(!is_individually_rational(
            &bid.quality,
            bid.ask,
            &bad_cost,
            0.5
        ));
    }

    #[test]
    fn theorem5_incentive_compatibility() {
        let s = solver(50, 10);
        let scoring = Additive::new(vec![1.0]).unwrap();
        for theta in [0.3, 0.6, 0.9] {
            assert!(incentive_compatibility_holds(&s, &scoring, theta, &[0.5, 0.8, 0.95]).unwrap());
        }
        // Invalid misreport factors are rejected.
        assert!(incentive_compatibility_holds(&s, &scoring, 0.5, &[1.5]).is_err());
    }

    #[test]
    fn theorem4_winners_maximise_social_surplus() {
        let s = solver(20, 4);
        let scoring = Additive::new(vec![1.0]).unwrap();
        let cost = QuadraticCost::new(vec![1.0]).unwrap();
        let theta = 0.5;
        let bid = s.bid_for(theta).unwrap();
        let award = Award {
            node: NodeId(0),
            quality: bid.quality.clone(),
            score: bid.score,
            payment: bid.ask,
        };
        let optimal = social_surplus(&[award], &[theta], &scoring, &cost).unwrap();
        // Any other quality choice yields weakly lower surplus.
        for q in [0.1, 0.5, 1.5, 3.0, 5.0] {
            let alt = Award {
                node: NodeId(0),
                quality: Quality::new(vec![q]),
                score: 0.0,
                payment: 0.0,
            };
            let surplus = social_surplus(&[alt], &[theta], &scoring, &cost).unwrap();
            assert!(
                surplus <= optimal + 1e-6,
                "q={q} surplus {surplus} > optimal {optimal}"
            );
        }
        // Length mismatch is rejected.
        assert!(social_surplus(&[], &[0.5], &scoring, &cost).is_err());
    }

    #[test]
    fn theorem2_and_theorem3_monotonicity() {
        let by_n: Vec<EquilibriumSolver> = [10, 20, 40].iter().map(|&n| solver(n, 5)).collect();
        assert!(profit_decreases_with_population(&by_n, 0.4, 1e-6).unwrap());

        let by_k: Vec<EquilibriumSolver> = [2, 5, 10].iter().map(|&k| solver(30, k)).collect();
        assert!(profit_increases_with_winners(&by_k, 0.4, 1e-6).unwrap());
    }

    #[test]
    fn proposition2_psi_keeps_win_probability_for_identical_types() {
        let (analytic, simulated) =
            psi_preserves_win_probability_for_identical_types(20, 5, 0.6, 4000, 42);
        assert!((analytic - 0.25).abs() < 1e-12);
        assert!(
            (analytic - simulated).abs() < 0.03,
            "simulated {simulated} should match analytic {analytic}"
        );
    }

    #[test]
    fn proposition4_ratios_match_lagrangian_solution() {
        let alphas = [0.5, 0.3, 0.2];
        let betas = [0.2, 0.3, 0.5];
        let ratios = cobb_douglas_resource_ratio(&alphas, &betas).unwrap();
        let q = cobb_douglas_optimal_quantities(&alphas, &betas, 0.4, 10.0).unwrap();
        for i in 0..3 {
            assert!((ratios[i][i] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert!(
                    (q[i] / q[j] - ratios[i][j]).abs() < 1e-9,
                    "ratio mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn proposition4_rejects_invalid_input() {
        assert!(cobb_douglas_resource_ratio(&[], &[]).is_err());
        assert!(cobb_douglas_resource_ratio(&[0.5], &[0.5, 0.5]).is_err());
        assert!(cobb_douglas_resource_ratio(&[-0.5, 0.5], &[0.5, 0.5]).is_err());
        assert!(cobb_douglas_optimal_quantities(&[0.5, 0.5], &[0.5, 0.5], 0.0, 1.0).is_err());
        assert!(cobb_douglas_optimal_quantities(&[0.5, 0.5], &[0.5, 0.5], 0.5, -1.0).is_err());
    }

    #[test]
    fn aggregator_can_steer_resource_mix_via_alphas() {
        // Doubling α1 relative to α2 doubles q1/q2 (with equal betas): the Proposition-4
        // guidance the aggregator uses to acquire the resources it actually needs.
        let base = cobb_douglas_optimal_quantities(&[0.5, 0.5], &[0.5, 0.5], 0.5, 10.0).unwrap();
        let skewed =
            cobb_douglas_optimal_quantities(&[2.0 / 3.0, 1.0 / 3.0], &[0.5, 0.5], 0.5, 10.0)
                .unwrap();
        let base_ratio = base[0] / base[1];
        let skewed_ratio = skewed[0] / skewed[1];
        assert!((skewed_ratio / base_ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_cost_social_surplus_is_additive_across_winners() {
        let scoring = Additive::new(vec![1.0]).unwrap();
        let cost = LinearCost::new(vec![1.0]).unwrap();
        let mk = |q: f64| Award {
            node: NodeId(0),
            quality: Quality::new(vec![q]),
            score: 0.0,
            payment: 0.0,
        };
        let one = social_surplus(&[mk(2.0)], &[0.5], &scoring, &cost).unwrap();
        let two = social_surplus(&[mk(2.0), mk(2.0)], &[0.5, 0.5], &scoring, &cost).unwrap();
        assert!((two - 2.0 * one).abs() < 1e-12);
    }
}
