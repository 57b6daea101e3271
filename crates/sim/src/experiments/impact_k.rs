//! Tests of the `impact-k` experiment (Fig. 10): the [`Axis::K`](super::parameter_impact::Axis::K) sweep of
//! [`parameter_impact`](super::parameter_impact).

mod tests {
    use crate::experiments::parameter_impact::{auction_game, run, Axis, ParameterImpactConfig};
    use crate::scenario::ScenarioRunner;

    #[test]
    fn payment_rises_and_score_falls_with_k() {
        // Theorem 3 / Fig. 10b. The payment effect is small relative to per-game noise, so
        // average enough games for the direction to be stable.
        let small = auction_game(40, 4, 16, 2).unwrap();
        let large = auction_game(40, 20, 16, 2).unwrap();
        assert!(
            large[0] >= small[0] - 0.05,
            "mean payment should not fall with K: {small:?} -> {large:?}"
        );
        assert!(
            large[1] <= small[1] + 0.05,
            "mean score should not rise with K: {small:?} -> {large:?}"
        );
    }

    #[test]
    fn quick_run_produces_both_panels() {
        let config = ParameterImpactConfig::quick(Axis::K);
        let result = run(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(result.rounds_to_accuracy.len(), 2);
        assert_eq!(result.sweep.len(), 3);
        assert!(result.sweep.iter().all(|p| p.stats.len() == 2));
        let tables = result.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("Impact of K"));
        assert_eq!(tables[1].rows.len(), 3);
        assert_eq!(config.pair, (2.0, 6.0));
    }

    #[test]
    fn paper_config_matches_figure_axes() {
        let c = ParameterImpactConfig::paper(Axis::K);
        assert_eq!(c.pair, (5.0, 25.0));
        assert_eq!(c.values, vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]);
        assert_eq!(c.n, 100);
    }
}
