//! Figures 4–7: model accuracy and loss per training round for FMore, RandFL, and FixFL.

use crate::error::SimError;
use crate::scenario::{ScenarioRunner, ScenarioSpec};
use crate::series::{Series, Table};
use fmore_fl::config::{FlConfig, ModelChoice};
use fmore_fl::metrics::TrainingHistory;
use fmore_fl::selection::SelectionStrategy;
use fmore_ml::dataset::TaskKind;

/// Configuration of one accuracy/loss figure (one task, all three schemes).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyConfig {
    /// Which paper task to train (selects the figure: 4 = MNIST-O, 5 = MNIST-F,
    /// 6 = CIFAR-10, 7 = HPNews).
    pub task: TaskKind,
    /// Number of federated rounds (20 in the paper).
    pub rounds: usize,
    /// The underlying federated-learning configuration.
    pub fl: FlConfig,
    /// Base RNG seed; every scheme gets a deterministic derived seed.
    pub seed: u64,
}

impl AccuracyConfig {
    /// A configuration that finishes in well under a second (tests, CI).
    pub fn quick(task: TaskKind) -> Self {
        Self {
            task,
            rounds: 3,
            fl: FlConfig::fast_test(task),
            seed: 42,
        }
    }

    /// The paper's simulator parameters (`N = 100`, `K = 20`, 20 rounds, non-IID), with the
    /// fast surrogate model so the full figure regenerates in minutes rather than hours (the
    /// selection dynamics — which clients win and how much data reaches the aggregator — are
    /// unchanged).
    pub(crate) fn paper(task: TaskKind) -> Self {
        let mut fl = FlConfig::paper_simulation(task);
        fl.model = ModelChoice::FastSurrogate;
        fl.train_samples = 8_000;
        fl.test_samples = 1_000;
        Self {
            task,
            rounds: 20,
            fl,
            seed: 42,
        }
    }
}

/// The accuracy/loss curves of one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyCurve {
    /// Scheme name ("FMore", "RandFL", "FixFL").
    pub strategy: String,
    /// Accuracy per round.
    pub accuracy: Series,
    /// Loss per round.
    pub loss: Series,
    /// The full per-round history (winners, payments, scores).
    pub history: TrainingHistory,
}

/// The reproduction of one of Figs. 4–7.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyFigure {
    /// The task the figure was generated for.
    pub task: TaskKind,
    /// One curve per scheme.
    pub curves: Vec<StrategyCurve>,
}

impl AccuracyFigure {
    /// Looks up the curve of a scheme by name.
    pub(crate) fn curve(&self, strategy: &str) -> Option<&StrategyCurve> {
        self.curves.iter().find(|c| c.strategy == strategy)
    }

    /// Renders the per-round accuracy of every scheme as a Markdown table (the data behind
    /// the paper figure).
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["round".to_string()];
        headers.extend(
            self.curves
                .iter()
                .map(|c| format!("{} accuracy", c.strategy)),
        );
        headers.extend(self.curves.iter().map(|c| format!("{} loss", c.strategy)));
        let mut table = Table {
            title: format!("Accuracy and loss per round — {}", self.task.name()),
            headers,
            rows: Vec::new(),
        };
        let rounds = self
            .curves
            .iter()
            .map(|c| c.accuracy.len())
            .max()
            .unwrap_or(0);
        for r in 0..rounds {
            let mut row = vec![(r + 1).to_string()];
            for c in &self.curves {
                row.push(format!(
                    "{:.4}",
                    c.accuracy.ys.get(r).copied().unwrap_or(f64::NAN)
                ));
            }
            for c in &self.curves {
                row.push(format!(
                    "{:.4}",
                    c.loss.ys.get(r).copied().unwrap_or(f64::NAN)
                ));
            }
            table.rows.push(row);
        }
        table
    }
}

/// The declarative specs of one accuracy figure: one scenario per scheme, with derived
/// seeds in scheme order.
pub(crate) fn specs(config: &AccuracyConfig) -> Vec<ScenarioSpec> {
    [
        SelectionStrategy::fmore(),
        SelectionStrategy::random(),
        SelectionStrategy::fixed_first(config.fl.winners_per_round),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, strategy)| {
        let label = strategy.name().to_string();
        ScenarioSpec::new(
            label,
            config.fl.clone(),
            strategy,
            config.rounds,
            config.seed + i as u64,
        )
    })
    .collect()
}

fn curve_from_history(strategy: String, history: TrainingHistory) -> StrategyCurve {
    StrategyCurve {
        strategy,
        accuracy: Series::from_rounds("accuracy", history.accuracy_series()),
        loss: Series::from_rounds("loss", history.loss_series()),
        history,
    }
}

/// Reproduces one of Figs. 4–7: trains the task with FMore, RandFL, and FixFL (in parallel
/// on the runner’s pool) and returns the three curves.
///
/// # Errors
///
/// Propagates configuration and auction errors from the scenario engine.
pub fn run(runner: &ScenarioRunner, config: &AccuracyConfig) -> Result<AccuracyFigure, SimError> {
    let outcomes = runner.run_all(&specs(config))?;
    let curves = outcomes
        .into_iter()
        .map(|o| curve_from_history(o.strategy, o.history))
        .collect();
    Ok(AccuracyFigure {
        task: config.task,
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figure_has_three_schemes() {
        let fig = run(
            &ScenarioRunner::new(),
            &AccuracyConfig::quick(TaskKind::MnistO),
        )
        .unwrap();
        assert_eq!(fig.curves.len(), 3);
        assert!(fig.curve("FMore").is_some());
        assert!(fig.curve("RandFL").is_some());
        assert!(fig.curve("FixFL").is_some());
        assert!(fig.curve("Nope").is_none());
        for c in &fig.curves {
            assert_eq!(c.accuracy.len(), 3);
            assert_eq!(c.loss.len(), 3);
            assert!(c.accuracy.ys.iter().all(|a| (0.0..=1.0).contains(a)));
        }
    }

    #[test]
    fn table_has_one_row_per_round() {
        let fig = run(
            &ScenarioRunner::new(),
            &AccuracyConfig::quick(TaskKind::MnistO),
        )
        .unwrap();
        let table = fig.to_table();
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.headers.len(), 1 + 3 + 3);
        assert!(table.to_markdown().contains("MNIST-O"));
    }

    #[test]
    fn paper_config_matches_section_v() {
        let c = AccuracyConfig::paper(TaskKind::Cifar10);
        assert_eq!(c.rounds, 20);
        assert_eq!(c.fl.clients, 100);
        assert_eq!(c.fl.winners_per_round, 20);
    }

    #[test]
    fn runs_are_deterministic() {
        let config = AccuracyConfig::quick(TaskKind::MnistO);
        let runner = ScenarioRunner::new();
        let a = run(&runner, &config).unwrap();
        let b = run(&runner, &config).unwrap();
        assert_eq!(a, b);
    }
}
