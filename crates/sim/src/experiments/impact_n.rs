//! Tests of the `impact-n` experiment (Fig. 9): the [`Axis::N`](super::parameter_impact::Axis::N) sweep of
//! [`parameter_impact`](super::parameter_impact).

mod tests {
    use crate::experiments::parameter_impact::{auction_game, run, Axis, ParameterImpactConfig};
    use crate::scenario::ScenarioRunner;

    #[test]
    fn sweep_shows_payment_falling_and_score_rising_with_n() {
        // Theorem 2 / Fig. 9b: more competition lowers payments and raises winner scores.
        let small = auction_game(20, 5, 4, 1).unwrap();
        let large = auction_game(80, 5, 4, 1).unwrap();
        assert!(
            large[0] <= small[0] + 0.05,
            "mean payment should not rise with N: {small:?} -> {large:?}"
        );
        assert!(
            large[1] >= small[1] - 0.05,
            "mean score should not fall with N: {small:?} -> {large:?}"
        );
    }

    #[test]
    fn quick_run_produces_both_panels() {
        let result = run(
            &ScenarioRunner::new(),
            &ParameterImpactConfig::quick(Axis::N),
        )
        .unwrap();
        assert_eq!(result.rounds_to_accuracy.len(), 2);
        assert_eq!(result.sweep.len(), 3);
        assert!(result.sweep.iter().all(|p| p.stats.len() == 2));
        let tables = result.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("Impact of N"));
        assert!(tables[0].to_markdown().contains('%'));
        assert_eq!(tables[1].rows.len(), 3);
    }

    #[test]
    fn paper_config_matches_figure_axes() {
        let c = ParameterImpactConfig::paper(Axis::N);
        assert_eq!(c.pair, (50.0, 100.0));
        assert_eq!(c.values.first(), Some(&50.0));
        assert_eq!(c.values.last(), Some(&200.0));
        assert_eq!(c.k, 20);
    }
}
