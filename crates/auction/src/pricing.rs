//! Payment allocation rules.
//!
//! Section III-A notes that both the first-price and the second-price auction can be applied
//! to FMore; the paper (and therefore our default) uses the **first-score** rule, in which a
//! winner is paid exactly what it asked. The generalized **second-score** rule instead pays
//! each winner the amount that would make its score equal to the best losing score, the
//! natural K-winner extension of the second-price sealed-bid auction.

use crate::scoring::ScoringRule;

/// How winners are paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Winners are paid their asked payment `p` (the paper's choice).
    #[default]
    FirstPrice,
    /// Winner `i` is paid `s(q_i) − S_{K+1}` where `S_{K+1}` is the best losing score, so its
    /// realised score equals the first excluded bid's. Falls back to the asked payment when
    /// every bidder wins (no losing score exists).
    SecondPrice,
}

impl PricingRule {
    /// The payment of one winner from its raw bid parts — the single pricing implementation
    /// shared by the streaming [`crate::store::StandingPool`] path and the full-sort
    /// reference [`crate::mechanism::Auction::run`]. `best_losing_score` is the score of the
    /// highest-ranked bid that did **not** win, if any.
    pub(crate) fn payment_from_parts(
        &self,
        rule: &ScoringRule,
        quality: &[f64],
        ask: f64,
        score: f64,
        best_losing_score: Option<f64>,
    ) -> f64 {
        match self {
            PricingRule::FirstPrice => ask,
            PricingRule::SecondPrice => match best_losing_score {
                Some(threshold) => {
                    let s_q = rule.function().evaluate(quality).unwrap_or(score + ask);
                    // Pay the winner up to the point where its score equals the threshold,
                    // but never less than it asked for (a winner is never punished for
                    // bidding aggressively).
                    (s_q - threshold).max(ask)
                }
                None => ask,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{Additive, ScoringRule};
    use crate::types::{NodeId, Quality, ScoredBid};

    fn rule() -> ScoringRule {
        ScoringRule::new(Additive::new(vec![1.0]).unwrap())
    }

    /// The payment of the winner at `sorted[winner_idx]`.
    fn payment(
        pricing: PricingRule,
        rule: &ScoringRule,
        sorted: &[ScoredBid],
        winner_idx: usize,
        best_losing_score: Option<f64>,
    ) -> f64 {
        let bid = &sorted[winner_idx];
        pricing.payment_from_parts(
            rule,
            bid.quality.as_slice(),
            bid.ask,
            bid.score,
            best_losing_score,
        )
    }

    fn bid(node: u64, q: f64, ask: f64, rule: &ScoringRule) -> ScoredBid {
        let quality = Quality::new(vec![q]);
        let score = rule.score(&quality, ask).unwrap();
        ScoredBid {
            node: NodeId(node),
            quality,
            ask,
            score,
        }
    }

    #[test]
    fn first_price_pays_the_ask() {
        let r = rule();
        let sorted = vec![bid(0, 1.0, 0.3, &r), bid(1, 0.8, 0.2, &r)];
        assert_eq!(
            payment(PricingRule::FirstPrice, &r, &sorted, 0, Some(0.6)),
            0.3
        );
    }

    #[test]
    fn second_price_pays_up_to_best_losing_score() {
        let r = rule();
        // Winner: s(q) = 1.0, ask 0.3 (score 0.7). Best losing score 0.5.
        let sorted = vec![bid(0, 1.0, 0.3, &r), bid(1, 0.8, 0.3, &r)];
        let p = payment(PricingRule::SecondPrice, &r, &sorted, 0, Some(0.5));
        assert!(
            (p - 0.5).abs() < 1e-12,
            "winner should be paid s(q) − S_loser = 0.5, got {p}"
        );
        // The payment is never below the ask.
        let p = payment(PricingRule::SecondPrice, &r, &sorted, 0, Some(0.9));
        assert_eq!(p, 0.3);
    }

    #[test]
    fn second_price_without_losers_falls_back_to_first_price() {
        let r = rule();
        let sorted = vec![bid(0, 1.0, 0.25, &r)];
        assert_eq!(
            payment(PricingRule::SecondPrice, &r, &sorted, 0, None),
            0.25
        );
    }

    #[test]
    fn second_price_weakly_exceeds_first_price() {
        let r = rule();
        let sorted = vec![
            bid(0, 2.0, 0.4, &r),
            bid(1, 1.5, 0.35, &r),
            bid(2, 1.0, 0.3, &r),
        ];
        let losing = Some(sorted[2].score);
        for idx in 0..2 {
            let fp = payment(PricingRule::FirstPrice, &r, &sorted, idx, losing);
            let sp = payment(PricingRule::SecondPrice, &r, &sorted, idx, losing);
            assert!(sp >= fp, "second price must weakly exceed first price");
        }
    }

    #[test]
    fn default_is_first_price() {
        assert_eq!(PricingRule::default(), PricingRule::FirstPrice);
    }
}
