//! Figures 12–13: the simulated 32-node cluster deployment (accuracy and training time for
//! FMore vs RandFL on CIFAR-10).

use crate::error::SimError;
use crate::scenario::{ClusterScenarioSpec, ScenarioRunner};
use crate::series::Table;
use fmore_mec::cluster::{ClusterConfig, ClusterHistory, ClusterStrategy};

/// Configuration of the cluster experiment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterExperimentConfig {
    /// The underlying cluster configuration.
    pub cluster: ClusterConfig,
    /// Number of rounds (20 in the paper).
    pub rounds: usize,
    /// Accuracy targets for the time-to-accuracy panel of Fig. 13.
    pub accuracy_targets: Vec<f64>,
    /// Base seed.
    pub seed: u64,
}

impl ClusterExperimentConfig {
    /// Quick configuration for tests.
    pub(crate) fn quick() -> Self {
        Self {
            cluster: ClusterConfig::fast_test(),
            rounds: 3,
            accuracy_targets: vec![0.5, 0.7],
            seed: 33,
        }
    }

    /// The paper's deployment: 31 nodes, CIFAR-10, 20 rounds, time-to-accuracy targets
    /// 35%–60%.
    pub(crate) fn paper() -> Self {
        Self {
            cluster: ClusterConfig::paper_cluster(),
            rounds: 20,
            accuracy_targets: vec![0.35, 0.40, 0.45, 0.50, 0.55, 0.60],
            seed: 33,
        }
    }
}

/// One scheme's cluster run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterCurve {
    /// Scheme name ("FMore" or "RandFL").
    pub strategy: String,
    /// The full per-round history.
    pub history: ClusterHistory,
}

/// The reproduction of Figs. 12–13.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterFigure {
    /// One curve per scheme.
    pub curves: Vec<ClusterCurve>,
    /// The accuracy targets evaluated for the time-to-accuracy panel.
    pub accuracy_targets: Vec<f64>,
}

impl ClusterFigure {
    /// Looks up a scheme by name.
    pub(crate) fn curve(&self, strategy: &str) -> Option<&ClusterCurve> {
        self.curves.iter().find(|c| c.strategy == strategy)
    }

    /// Time (seconds) needed by a scheme to reach an accuracy target (Fig. 13 right).
    pub(crate) fn time_to_accuracy(&self, strategy: &str, target: f64) -> Option<f64> {
        self.curve(strategy)
            .and_then(|c| c.history.time_to_accuracy(target))
    }

    /// Markdown table with the per-round accuracy and cumulative time of every scheme.
    pub(crate) fn to_table(&self) -> Table {
        let mut headers = vec!["round".to_string()];
        for c in &self.curves {
            headers.push(format!("{} accuracy", c.strategy));
            headers.push(format!("{} time (s)", c.strategy));
        }
        let mut table = Table {
            title: "Cluster deployment: accuracy and training time (Figs. 12-13)".to_string(),
            headers,
            rows: Vec::new(),
        };
        let rounds = self
            .curves
            .iter()
            .map(|c| c.history.rounds.len())
            .max()
            .unwrap_or(0);
        for r in 0..rounds {
            let mut row = vec![(r + 1).to_string()];
            for c in &self.curves {
                let acc = c
                    .history
                    .rounds
                    .get(r)
                    .map_or(f64::NAN, |x| x.learning.accuracy);
                let time = c
                    .history
                    .rounds
                    .get(r)
                    .map_or(f64::NAN, |x| x.cumulative_secs);
                row.push(format!("{acc:.4}"));
                row.push(format!("{time:.1}"));
            }
            table.rows.push(row);
        }
        table
    }
}

/// The declarative specs of the cluster figure: one cluster scenario per scheme.
pub(crate) fn specs(config: &ClusterExperimentConfig) -> Vec<ClusterScenarioSpec> {
    [ClusterStrategy::FMore, ClusterStrategy::RandFL]
        .into_iter()
        .map(|strategy| {
            ClusterScenarioSpec::new(
                strategy.name(),
                config.cluster.clone(),
                strategy,
                config.rounds,
                config.seed,
            )
        })
        .collect()
}

/// Reproduces Figs. 12–13: runs the simulated cluster with FMore and with RandFL, in
/// parallel on the runner’s pool.
///
/// # Errors
///
/// Propagates cluster construction and training errors.
pub(crate) fn run(
    runner: &ScenarioRunner,
    config: &ClusterExperimentConfig,
) -> Result<ClusterFigure, SimError> {
    let outcomes = runner.run_clusters(&specs(config))?;
    let curves = outcomes
        .into_iter()
        .map(|o| ClusterCurve {
            strategy: o.strategy,
            history: o.history,
        })
        .collect();
    Ok(ClusterFigure {
        curves,
        accuracy_targets: config.accuracy_targets.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_compares_both_schemes() {
        let fig = run(&ScenarioRunner::new(), &ClusterExperimentConfig::quick()).unwrap();
        assert_eq!(fig.curves.len(), 2);
        assert!(fig.curve("FMore").is_some());
        assert!(fig.curve("RandFL").is_some());
        assert!(fig.curve("other").is_none());
        // Unknown strategies yield no time-to-accuracy.
        assert!(fig.time_to_accuracy("other", 0.5).is_none());
        let md = fig.to_table().to_markdown();
        assert!(md.contains("FMore accuracy") && md.contains("RandFL time"));
    }

    #[test]
    fn time_to_accuracy_is_consistent_with_the_series() {
        let fig = run(&ScenarioRunner::new(), &ClusterExperimentConfig::quick()).unwrap();
        for strategy in ["FMore", "RandFL"] {
            if let Some(t) = fig.time_to_accuracy(strategy, 0.0) {
                let first_time = fig.curve(strategy).unwrap().history.rounds[0].cumulative_secs;
                assert_eq!(t, first_time);
            }
        }
    }

    #[test]
    fn paper_config_matches_section_v_c() {
        let c = ClusterExperimentConfig::paper();
        assert_eq!(c.rounds, 20);
        assert_eq!(c.cluster.nodes, 31);
        assert!(c.accuracy_targets.contains(&0.5));
    }
}
