//! Figure 8: the distribution of the scores of the nodes each scheme selects.
//!
//! FMore deliberately selects high-score nodes (lots of data, many categories, low cost);
//! RandFL selects uniformly; FixFL is stuck with whatever its fixed set offers. The paper
//! visualises this as the cumulative proportion of selected nodes per score bucket. Here the
//! same per-scheme winner-score samples are produced along with the score distribution of
//! the whole population.

use crate::error::SimError;
use crate::experiments::accuracy::AccuracyConfig;
use crate::scenario::{ScenarioRunner, ScenarioSpec};
use crate::series::Table;
use fmore_auction::{CobbDouglas, ScoringFunction};
use fmore_fl::selection::SelectionStrategy;

/// Winner-score samples of one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeScores {
    /// Scheme name.
    pub strategy: String,
    /// Quality score `s(q)` of every selected node over all rounds.
    pub winner_scores: Vec<f64>,
}

/// The reproduction of Fig. 8 for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreDistribution {
    /// Quality scores of the entire node population (the "Total" curve of Fig. 8).
    pub population_scores: Vec<f64>,
    /// Winner scores per scheme.
    pub schemes: Vec<SchemeScores>,
}

impl ScoreDistribution {
    /// Mean winner score of a scheme (0 if absent).
    pub fn mean_winner_score(&self, strategy: &str) -> f64 {
        self.schemes
            .iter()
            .find(|s| s.strategy == strategy)
            .map_or(0.0, |s| fmore_numerics::stats::mean(&s.winner_scores))
    }

    /// Markdown table of mean/median winner score per scheme.
    pub(crate) fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Winner score distribution (Fig. 8)",
            &["scheme", "mean score", "median score", "samples"],
        );
        let mut row = |name: &str, scores: &[f64]| {
            table.push_row(&[
                name.to_string(),
                format!("{:.3}", fmore_numerics::stats::mean(scores)),
                format!(
                    "{:.3}",
                    fmore_numerics::stats::percentile(scores, 50.0).unwrap_or(0.0)
                ),
                scores.len().to_string(),
            ]);
        };
        row("Total population", &self.population_scores);
        for scheme in &self.schemes {
            row(&scheme.strategy, &scheme.winner_scores);
        }
        table
    }
}

/// Computes the quality score `s(q1, q2)` of a winner from the information recorded in the
/// training history (data size and category count), using the simulator's scoring function.
fn winner_quality_score(
    scoring: &CobbDouglas,
    data_size: usize,
    categories: usize,
    max_data: f64,
    num_classes: usize,
) -> f64 {
    let q1 = (data_size as f64 / max_data).clamp(0.0, 1.0);
    let q2 = if num_classes > 0 {
        categories as f64 / num_classes as f64
    } else {
        0.0
    };
    scoring.value(&[q1, q2])
}

/// Reproduces Fig. 8: runs FMore, RandFL, and FixFL on the configured task and collects the
/// quality scores of every selected node, plus the score distribution of the whole
/// population.
///
/// # Errors
///
/// Propagates configuration and auction errors from the scenario engine.
pub fn run(
    runner: &ScenarioRunner,
    config: &AccuracyConfig,
) -> Result<ScoreDistribution, SimError> {
    let scoring =
        CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).expect("static scoring parameters are valid");
    let max_data = config.fl.partition.size_range.1 as f64;

    // Population scores: what every client could offer at full availability.
    let probe_spec = ScenarioSpec::new(
        "population probe",
        config.fl.clone(),
        SelectionStrategy::random(),
        0,
        config.seed,
    );
    let probe = runner.trainer(&probe_spec)?;
    let num_classes = 10;
    let population_scores: Vec<f64> = probe
        .clients()
        .iter()
        .map(|c| {
            winner_quality_score(
                &scoring,
                c.shard().size(),
                c.shard().categories,
                max_data,
                num_classes,
            )
        })
        .collect();

    // One scenario per scheme, run in parallel on the runner's pool (same seeds as the
    // former sequential loop, so histories are unchanged).
    let specs: Vec<ScenarioSpec> = [
        SelectionStrategy::fmore(),
        SelectionStrategy::random(),
        SelectionStrategy::fixed_first(config.fl.winners_per_round),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, strategy)| {
        ScenarioSpec::new(
            strategy.name(),
            config.fl.clone(),
            strategy,
            config.rounds,
            config.seed + 100 + i as u64,
        )
    })
    .collect();
    let mut schemes = Vec::new();
    for outcome in runner.run_all(&specs)? {
        let winner_scores: Vec<f64> = outcome
            .history
            .rounds
            .iter()
            .flat_map(|r| r.winners.iter())
            .map(|w| {
                winner_quality_score(&scoring, w.data_size, w.categories, max_data, num_classes)
            })
            .collect();
        schemes.push(SchemeScores {
            strategy: outcome.strategy,
            winner_scores,
        });
    }
    Ok(ScoreDistribution {
        population_scores,
        schemes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_ml::dataset::TaskKind;

    #[test]
    fn fmore_selects_higher_scores_than_random() {
        let config = AccuracyConfig::quick(TaskKind::MnistO);
        let dist = run(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(dist.schemes.len(), 3);
        let fmore = dist.mean_winner_score("FMore");
        let rand = dist.mean_winner_score("RandFL");
        assert!(
            fmore >= rand,
            "FMore mean winner score {fmore} should be at least RandFL's {rand}"
        );
        assert_eq!(dist.mean_winner_score("absent"), 0.0);
        assert!(!dist.population_scores.is_empty());
    }

    #[test]
    fn table_lists_population_and_all_schemes() {
        let config = AccuracyConfig::quick(TaskKind::MnistO);
        let dist = run(&ScenarioRunner::new(), &config).unwrap();
        let md = dist.to_table().to_markdown();
        assert!(md.contains("Total population"));
        assert!(md.contains("FMore"));
        assert!(md.contains("RandFL"));
        assert!(md.contains("FixFL"));
    }
}
