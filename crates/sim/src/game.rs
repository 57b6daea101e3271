//! Tests of the paper's simulator auction game (Section V-A) that drives panel (b) of the
//! parameter figures: held equilibrium bids selected by the streamed selector, and the ψ-FMore
//! rank walk. The game itself lives in
//! [`experiments::parameter_impact`](crate::experiments::parameter_impact).

mod tests {
    use crate::experiments::parameter_impact::{auction_game, rank_spread, SCORING_SCALE};

    #[test]
    fn paper_game_is_deterministic_per_seed() {
        let a = auction_game(20, 5, 2, 7).unwrap();
        let b = auction_game(20, 5, 2, 7).unwrap();
        assert_eq!(a, b);
        let c = auction_game(20, 5, 2, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn statistics_are_positive_and_bounded() {
        let [mean_payment, mean_score] = auction_game(30, 5, 3, 1).unwrap();
        assert!(mean_payment > 0.0);
        assert!(mean_score > 0.0);
        // Score cannot exceed the scoring scale at full quality and zero ask.
        assert!(mean_score <= SCORING_SCALE);
    }

    #[test]
    fn competition_lowers_payments_and_raises_scores() {
        // Theorem 2 / Fig. 9b.
        let [small_payment, small_score] = auction_game(20, 5, 4, 1).unwrap();
        let [large_payment, large_score] = auction_game(80, 5, 4, 1).unwrap();
        assert!(large_payment <= small_payment + 0.05);
        assert!(large_score >= small_score - 0.05);
    }

    #[test]
    fn rank_spread_concentrates_with_large_psi() {
        let low = rank_spread(0.2, 100, 20, 200, 1);
        let high = rank_spread(0.8, 100, 20, 200, 1);
        assert!(high[2] > low[2]);
        assert!(high[0] > low[0]);
        for [top10, top20, top30] in [low, high] {
            assert!(top10 <= 10.0 + 1e-9);
            assert!(top10 <= top20 && top20 <= top30);
        }
    }
}
