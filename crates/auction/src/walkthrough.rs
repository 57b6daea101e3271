//! The five-node walk-through example of Section III-B (Fig. 3).
//!
//! Two resources are considered — training-data size over `[1000, 5000]` samples and
//! bandwidth over `[5, 100]` Mb — with the perfect-complementary scoring rule
//! `S(q, p) = min{0.5·q̂1, 0.5·q̂2} − p`, where `q̂` denotes the min–max-normalised qualities.
//! Three winners (`K = 3`) are selected per round under first-price payment.
//!
//! The module reproduces the paper's numbers exactly and is reused by the
//! `auction_walkthrough` example and the integration tests.

use crate::error::AuctionError;
use crate::mechanism::{Auction, AuctionOutcome, SubmittedBid};
use crate::pricing::PricingRule;
use crate::scoring::{NormalizedScoring, PerfectComplementary, ScoringRule};
use crate::types::{NodeId, Quality};
use crate::winner::SelectionRule;
use rand::Rng;

/// Data-size range of the example, in samples.
pub(crate) const DATA_RANGE: (f64, f64) = (1000.0, 5000.0);
/// Bandwidth range of the example, in Mb.
pub(crate) const BANDWIDTH_RANGE: (f64, f64) = (5.0, 100.0);
/// Number of winners per round in the example.
pub(crate) const WINNERS: usize = 3;

/// Node labels used in Fig. 3, in submission order (A, B, C, D, E).
pub(crate) const NODE_LABELS: [char; 5] = ['A', 'B', 'C', 'D', 'E'];

/// Builds the walk-through scoring rule
/// `S(q, p) = min{0.5·norm(q1), 0.5·norm(q2)} − p`.
///
/// # Errors
///
/// Never fails in practice; the error type is kept for API uniformity.
pub(crate) fn walkthrough_scoring_rule() -> Result<ScoringRule, AuctionError> {
    let inner = PerfectComplementary::new(vec![0.5, 0.5])?;
    let normalized = NormalizedScoring::new(inner, vec![DATA_RANGE, BANDWIDTH_RANGE])?;
    Ok(ScoringRule::new(normalized))
}

/// Builds the walk-through auction (`K = 3`, top-K selection, first-price payment).
///
/// # Errors
///
/// Never fails in practice; the error type is kept for API uniformity.
pub(crate) fn walkthrough_auction() -> Result<Auction, AuctionError> {
    Ok(Auction::new(
        walkthrough_scoring_rule()?,
        WINNERS,
        SelectionRule::TopK,
        PricingRule::FirstPrice,
    ))
}

/// The five sealed bids of round 1: (data size, bandwidth, expected payment).
pub(crate) fn round1_bids() -> Vec<SubmittedBid> {
    bids(&[
        (4000.0, 85.0, 0.20),
        (3000.0, 35.0, 0.10),
        (3500.0, 75.0, 0.18),
        (5000.0, 85.0, 0.20),
        (5000.0, 100.0, 0.20),
    ])
}

/// The five sealed bids of round 2, after nodes revise their resources and asks.
pub(crate) fn round2_bids() -> Vec<SubmittedBid> {
    bids(&[
        (4000.0, 85.0, 0.16),
        (3500.0, 45.0, 0.10),
        (4000.0, 80.0, 0.15),
        (4000.0, 80.0, 0.20),
        (5000.0, 100.0, 0.30),
    ])
}

fn bids(rows: &[(f64, f64, f64)]) -> Vec<SubmittedBid> {
    rows.iter()
        .enumerate()
        .map(|(i, &(data, bandwidth, ask))| {
            SubmittedBid::new(NodeId(i as u64), Quality::new(vec![data, bandwidth]), ask)
        })
        .collect()
}

/// Runs both rounds of the walk-through example and returns the two outcomes.
///
/// # Errors
///
/// Propagates auction errors (none occur for the fixed example data).
pub fn run_walkthrough<R: Rng + ?Sized>(
    rng: &mut R,
) -> Result<(AuctionOutcome, AuctionOutcome), AuctionError> {
    let auction = walkthrough_auction()?;
    let round1 = auction.run(round1_bids(), rng)?;
    let round2 = auction.run(round2_bids(), rng)?;
    Ok((round1, round2))
}

/// Converts a node id of this example into its Fig. 3 label (A–E).
pub fn label_of(node: NodeId) -> char {
    NODE_LABELS.get(node.0 as usize).copied().unwrap_or('?')
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    #[test]
    fn round1_scores_match_the_paper() {
        let rule = walkthrough_scoring_rule().unwrap();
        // Paper, Fig. 3 round-1 table: E 0.300, D 0.221, A 0.175, C 0.133, B 0.058.
        let expected = [0.175, 0.058, 0.133, 0.221, 0.300];
        for (bid, want) in round1_bids().iter().zip(expected) {
            let score = rule.score(&bid.quality, bid.ask).unwrap();
            assert!(
                (score - want).abs() < 2e-3,
                "node {} score {score} != paper {want}",
                label_of(bid.node)
            );
        }
    }

    #[test]
    fn round2_scores_match_the_paper() {
        let rule = walkthrough_scoring_rule().unwrap();
        // Paper, Fig. 3 round-2 table: C 0.225, A 0.215, E 0.200, D 0.175, B 0.111.
        let expected = [0.215, 0.111, 0.225, 0.175, 0.200];
        for (bid, want) in round2_bids().iter().zip(expected) {
            let score = rule.score(&bid.quality, bid.ask).unwrap();
            assert!(
                (score - want).abs() < 2e-3,
                "node {} score {score} != paper {want}",
                label_of(bid.node)
            );
        }
    }

    #[test]
    fn winner_sets_match_the_paper() {
        let mut rng = seeded_rng(1);
        let (round1, round2) = run_walkthrough(&mut rng).unwrap();

        let mut w1: Vec<char> = round1.winner_ids().iter().copied().map(label_of).collect();
        w1.sort_unstable();
        assert_eq!(
            w1,
            vec!['A', 'D', 'E'],
            "round 1 winners should be {{A, D, E}}"
        );

        let mut w2: Vec<char> = round2.winner_ids().iter().copied().map(label_of).collect();
        w2.sort_unstable();
        assert_eq!(
            w2,
            vec!['A', 'C', 'E'],
            "round 2 winners should be {{A, C, E}}"
        );
    }

    #[test]
    fn first_price_payments_match_the_paper() {
        let mut rng = seeded_rng(2);
        let (round1, round2) = run_walkthrough(&mut rng).unwrap();
        // Round 1: winners are paid what they asked (first price): A 0.20, D 0.20, E 0.20.
        for award in round1.winners() {
            assert!((award.payment - 0.20).abs() < 1e-9);
        }
        // Round 2: A 0.16, C 0.15, E 0.30.
        for award in round2.winners() {
            let expected = match label_of(award.node) {
                'A' => 0.16,
                'C' => 0.15,
                'E' => 0.30,
                other => panic!("unexpected round-2 winner {other}"),
            };
            assert!((award.payment - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn node_c_rises_from_fourth_to_first_between_rounds() {
        let mut rng = seeded_rng(3);
        let (round1, round2) = run_walkthrough(&mut rng).unwrap();
        let rank_of_c = |outcome: &AuctionOutcome| {
            outcome
                .ranked()
                .iter()
                .position(|b| label_of(b.node) == 'C')
                .unwrap()
        };
        assert_eq!(rank_of_c(&round1), 3, "C is ranked 4th in round 1");
        assert_eq!(rank_of_c(&round2), 0, "C is ranked 1st in round 2");
    }

    #[test]
    fn label_helper_handles_unknown_nodes() {
        assert_eq!(label_of(NodeId(0)), 'A');
        assert_eq!(label_of(NodeId(4)), 'E');
        assert_eq!(label_of(NodeId(99)), '?');
    }
}
