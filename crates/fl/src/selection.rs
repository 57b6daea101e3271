//! Client-selection strategies: RandFL, FixFL, FMore, and ψ-FMore.

use fmore_auction::{PricingRule, SelectionRule};

/// Configuration of the FMore auction used for client selection in the simulator.
///
/// The default reproduces Section V-A: scoring `s(q1, q2) = 25·q1·q2` over the normalised
/// data-size and category-proportion resources, first-price payment, linear private cost.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionSelectionConfig {
    /// Multiplicative scale α of the Cobb–Douglas scoring (25 in the paper's simulator).
    pub scoring_scale: f64,
    /// Per-resource exponents of the Cobb–Douglas scoring function.
    pub scoring_exponents: Vec<f64>,
    /// Per-resource coefficients β of the linear private cost `c(q, θ) = θ Σ βi qi`.
    pub cost_coefficients: Vec<f64>,
    /// How winners are paid.
    pub pricing: PricingRule,
    /// How the winner set is formed (plain top-K or ψ-FMore).
    pub selection: SelectionRule,
}

impl Default for AuctionSelectionConfig {
    fn default() -> Self {
        Self {
            scoring_scale: 25.0,
            scoring_exponents: vec![1.0, 1.0],
            cost_coefficients: vec![2.0, 1.0],
            pricing: PricingRule::FirstPrice,
            selection: SelectionRule::TopK,
        }
    }
}

impl AuctionSelectionConfig {
    /// Number of resource dimensions.
    pub fn dims(&self) -> usize {
        self.scoring_exponents.len()
    }
}

/// How the aggregator chooses the `K` participants of each round.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionStrategy {
    /// RandFL: `K` clients chosen uniformly at random (McMahan et al.).
    Random,
    /// FixFL: the same `K` clients (given by their indices) train every round.
    Fixed(Vec<usize>),
    /// FMore / ψ-FMore: clients bid, the auction selects and pays the winners.
    Auction(AuctionSelectionConfig),
}

impl SelectionStrategy {
    /// RandFL.
    pub fn random() -> Self {
        SelectionStrategy::Random
    }

    /// FixFL over the first `k` clients.
    pub fn fixed_first(k: usize) -> Self {
        SelectionStrategy::Fixed((0..k).collect())
    }

    /// FMore with the paper's simulator auction configuration.
    pub fn fmore() -> Self {
        SelectionStrategy::Auction(AuctionSelectionConfig::default())
    }

    /// ψ-FMore with the paper's simulator auction configuration and admission probability ψ.
    pub fn psi_fmore(psi: f64) -> Self {
        SelectionStrategy::Auction(AuctionSelectionConfig {
            selection: SelectionRule::PsiFMore { psi },
            ..AuctionSelectionConfig::default()
        })
    }

    /// Short name used in experiment reports and figures ("FMore", "RandFL", "FixFL",
    /// "ψ-FMore").
    pub fn name(&self) -> &'static str {
        match self {
            SelectionStrategy::Random => "RandFL",
            SelectionStrategy::Fixed(_) => "FixFL",
            SelectionStrategy::Auction(cfg) => match cfg.selection {
                SelectionRule::TopK => "FMore",
                SelectionRule::PsiFMore { .. } => "psi-FMore",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_names() {
        assert_eq!(SelectionStrategy::random().name(), "RandFL");
        assert_eq!(SelectionStrategy::fixed_first(5).name(), "FixFL");
        assert_eq!(SelectionStrategy::fmore().name(), "FMore");
        assert_eq!(SelectionStrategy::psi_fmore(0.7).name(), "psi-FMore");
    }

    #[test]
    fn fixed_first_enumerates_clients() {
        let strategy = SelectionStrategy::fixed_first(3);
        assert!(
            matches!(&strategy, SelectionStrategy::Fixed(idx) if *idx == vec![0, 1, 2]),
            "unexpected {strategy:?}"
        );
    }

    #[test]
    fn default_auction_config_matches_paper_simulator() {
        let cfg = AuctionSelectionConfig::default();
        assert_eq!(cfg.scoring_scale, 25.0);
        assert_eq!(cfg.dims(), 2);
        assert_eq!(cfg.pricing, PricingRule::FirstPrice);
        assert_eq!(cfg.selection, SelectionRule::TopK);
    }

    #[test]
    fn psi_fmore_embeds_psi() {
        let strategy = SelectionStrategy::psi_fmore(0.4);
        assert!(
            matches!(
                &strategy,
                SelectionStrategy::Auction(cfg)
                    if cfg.selection == SelectionRule::PsiFMore { psi: 0.4 }
            ),
            "unexpected {strategy:?}"
        );
    }
}
