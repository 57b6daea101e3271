//! Tests of the `impact-psi` experiment (Fig. 11): the [`Axis::Psi`](super::parameter_impact::Axis::Psi) sweep of
//! [`parameter_impact`](super::parameter_impact).

mod tests {
    use crate::experiments::parameter_impact::{rank_spread, run, Axis, ParameterImpactConfig};
    use crate::scenario::ScenarioRunner;

    #[test]
    fn large_psi_concentrates_winners_at_the_top() {
        // Fig. 11b: with ψ = 0.8 roughly two thirds of the selected nodes are in the top 30;
        // with ψ = 0.2 the selection is much more spread out.
        let low = rank_spread(0.2, 100, 20, 200, 1);
        let high = rank_spread(0.8, 100, 20, 200, 1);
        assert!(high[2] > low[2]);
        assert!(high[0] > low[0]);
        // Sanity: counts are bounded by K and by the rank width.
        for [top10, top20, top30] in [low, high] {
            assert!(top10 <= 10.0 + 1e-9);
            assert!(top20 <= 20.0 + 1e-9);
            assert!(top30 <= 20.0 + 1e-9, "cannot select more than K nodes");
            assert!(top10 <= top20 && top20 <= top30);
        }
    }

    #[test]
    fn psi_08_selects_most_winners_from_top_30() {
        // The paper reports that with ψ = 0.8 roughly two thirds of the selected nodes are
        // among the top 30 scores; a literal score-order walk concentrates at least that much
        // (the exact fraction depends on tie handling the paper does not specify), so we
        // assert the qualitative claim: a clear majority of selections fall in the top 30.
        let fraction = rank_spread(0.8, 100, 20, 400, 3)[2] / 20.0;
        assert!(
            (0.6..=1.0).contains(&fraction),
            "top-30 fraction {fraction} should be a clear majority"
        );
    }

    #[test]
    fn quick_run_produces_both_panels() {
        let config = ParameterImpactConfig::quick(Axis::Psi);
        let result = run(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(result.rounds_to_accuracy.len(), 2);
        assert_eq!(result.sweep.len(), 3);
        assert!(result.sweep.iter().all(|p| p.stats.len() == 3));
        let tables = result.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.starts_with("Impact of ψ"));
        assert!(tables[1].to_markdown().contains("Impact of ψ"));
        assert_eq!(config.pair, (0.3, 0.9));
    }

    #[test]
    fn paper_config_matches_figure_axes() {
        let c = ParameterImpactConfig::paper(Axis::Psi);
        assert_eq!(c.pair, (0.3, 0.9));
        assert_eq!(c.values.len(), 7);
        assert_eq!(c.n, 100);
        assert_eq!(c.k, 20);
    }
}
