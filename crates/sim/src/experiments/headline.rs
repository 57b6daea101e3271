//! The paper's headline claims (§I, §V, §VII):
//!
//! * simulations: FMore reduces training rounds by ~51.3% on average and improves model
//!   accuracy by ~28% (LSTM) compared with RandFL,
//! * cluster deployment: training time reduced by ~38.4% and accuracy improved by ~44.9%.
//!
//! This module computes the same quantities from reproduction runs; the `headline` registry
//! entry reports them, to be read against the paper's values above.

use crate::experiments::accuracy::AccuracyFigure;
use crate::experiments::cluster::ClusterFigure;
use crate::series::Table;

/// Relative reduction `(baseline − ours) / baseline`, as a percentage. Returns `None` when
/// the baseline is not positive.
pub(crate) fn relative_reduction_pct(ours: f64, baseline: f64) -> Option<f64> {
    if baseline <= 0.0 {
        return None;
    }
    Some((baseline - ours) / baseline * 100.0)
}

/// Relative improvement `(ours − baseline) / baseline`, as a percentage. Returns `None` when
/// the baseline is not positive.
pub(crate) fn relative_improvement_pct(ours: f64, baseline: f64) -> Option<f64> {
    if baseline <= 0.0 {
        return None;
    }
    Some((ours - baseline) / baseline * 100.0)
}

/// Headline metrics extracted from one accuracy figure (one task).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationHeadline {
    /// Task name.
    pub task: String,
    /// The accuracy target used for the round-reduction comparison.
    pub accuracy_target: f64,
    /// Rounds FMore needed to reach the target (if reached).
    pub fmore_rounds: Option<usize>,
    /// Rounds RandFL needed to reach the target (if reached).
    pub randfl_rounds: Option<usize>,
    /// Round reduction in percent (if both reached the target).
    pub round_reduction_pct: Option<f64>,
    /// Final-round accuracy improvement of FMore over RandFL, in percent.
    pub accuracy_improvement_pct: Option<f64>,
}

/// Computes the simulation headline numbers for one task figure.
///
/// `accuracy_target` should be the per-task threshold the paper uses (95% for MNIST-O, 84%
/// for MNIST-F, 50% for CIFAR-10, 46% for HPNews).
pub fn simulation_headline(figure: &AccuracyFigure, accuracy_target: f64) -> SimulationHeadline {
    let fmore = figure.curve("FMore");
    let randfl = figure.curve("RandFL");
    let fmore_rounds = fmore.and_then(|c| c.history.rounds_to_accuracy(accuracy_target));
    let randfl_rounds = randfl.and_then(|c| c.history.rounds_to_accuracy(accuracy_target));
    let round_reduction_pct = match (fmore_rounds, randfl_rounds) {
        (Some(f), Some(r)) => relative_reduction_pct(f as f64, r as f64),
        _ => None,
    };
    let accuracy_improvement_pct = match (fmore, randfl) {
        (Some(f), Some(r)) => {
            relative_improvement_pct(f.history.final_accuracy(), r.history.final_accuracy())
        }
        _ => None,
    };
    SimulationHeadline {
        task: figure.task.name().to_string(),
        accuracy_target,
        fmore_rounds,
        randfl_rounds,
        round_reduction_pct,
        accuracy_improvement_pct,
    }
}

/// Headline metrics extracted from the cluster figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHeadline {
    /// The accuracy target used for the time comparison (50% for CIFAR-10 in the paper).
    pub accuracy_target: f64,
    /// Simulated seconds FMore needed to reach the target.
    pub fmore_secs: Option<f64>,
    /// Simulated seconds RandFL needed to reach the target.
    pub randfl_secs: Option<f64>,
    /// Training-time reduction in percent.
    pub time_reduction_pct: Option<f64>,
    /// Final-round accuracy improvement of FMore over RandFL, in percent.
    pub accuracy_improvement_pct: Option<f64>,
}

/// Computes the cluster headline numbers (Fig. 12–13 summary: −38.4% time, +44.9% accuracy
/// in the paper).
pub(crate) fn cluster_headline(figure: &ClusterFigure, accuracy_target: f64) -> ClusterHeadline {
    let fmore_secs = figure.time_to_accuracy("FMore", accuracy_target);
    let randfl_secs = figure.time_to_accuracy("RandFL", accuracy_target);
    let time_reduction_pct = match (fmore_secs, randfl_secs) {
        (Some(f), Some(r)) => relative_reduction_pct(f, r),
        _ => None,
    };
    let accuracy_improvement_pct = match (figure.curve("FMore"), figure.curve("RandFL")) {
        (Some(f), Some(r)) => {
            relative_improvement_pct(f.history.final_accuracy(), r.history.final_accuracy())
        }
        _ => None,
    };
    ClusterHeadline {
        accuracy_target,
        fmore_secs,
        randfl_secs,
        time_reduction_pct,
        accuracy_improvement_pct,
    }
}

/// Renders a set of simulation headlines plus the cluster headline as one Markdown table.
pub fn headline_table(
    simulations: &[SimulationHeadline],
    cluster: Option<&ClusterHeadline>,
) -> Table {
    let mut t = Table::new(
        "Headline metrics: FMore vs RandFL",
        &["experiment", "round/time reduction", "accuracy improvement"],
    );
    let fmt_pct = |v: Option<f64>| v.map_or("n/a".to_string(), |p| format!("{p:.1}%"));
    for s in simulations {
        t.push_row(&[
            format!(
                "simulation {} (target {:.0}%)",
                s.task,
                s.accuracy_target * 100.0
            ),
            fmt_pct(s.round_reduction_pct),
            fmt_pct(s.accuracy_improvement_pct),
        ]);
    }
    if let Some(c) = cluster {
        t.push_row(&[
            format!(
                "cluster CIFAR-10 (target {:.0}%)",
                c.accuracy_target * 100.0
            ),
            fmt_pct(c.time_reduction_pct),
            fmt_pct(c.accuracy_improvement_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::accuracy::{run as run_accuracy, AccuracyConfig};
    use crate::experiments::cluster::{run as run_cluster, ClusterExperimentConfig};
    use crate::scenario::ScenarioRunner;
    use fmore_ml::dataset::TaskKind;

    #[test]
    fn relative_helpers() {
        assert_eq!(relative_reduction_pct(10.0, 20.0), Some(50.0));
        assert!((relative_improvement_pct(0.6, 0.4).unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(relative_reduction_pct(1.0, 0.0), None);
        assert_eq!(relative_improvement_pct(1.0, -1.0), None);
    }

    #[test]
    fn simulation_headline_from_quick_run() {
        let figure = run_accuracy(
            &ScenarioRunner::new(),
            &AccuracyConfig::quick(TaskKind::MnistO),
        )
        .unwrap();
        let headline = simulation_headline(&figure, 0.3);
        assert_eq!(headline.task, "MNIST-O");
        assert_eq!(headline.accuracy_target, 0.3);
        // Accuracy improvement is computable whenever both curves exist.
        assert!(headline.accuracy_improvement_pct.is_some());
    }

    #[test]
    fn cluster_headline_from_quick_run() {
        let figure =
            run_cluster(&ScenarioRunner::new(), &ClusterExperimentConfig::quick()).unwrap();
        let headline = cluster_headline(&figure, 0.0);
        // Target 0.0 is reached in round 1 by both schemes.
        assert!(headline.fmore_secs.is_some());
        assert!(headline.randfl_secs.is_some());
        assert!(headline.time_reduction_pct.is_some());
        assert!(headline.accuracy_improvement_pct.is_some());
    }

    #[test]
    fn table_renders_all_rows() {
        let sim = SimulationHeadline {
            task: "CIFAR-10".into(),
            accuracy_target: 0.5,
            fmore_rounds: Some(8),
            randfl_rounds: Some(17),
            round_reduction_pct: relative_reduction_pct(8.0, 17.0),
            accuracy_improvement_pct: Some(28.0),
        };
        let cluster = ClusterHeadline {
            accuracy_target: 0.5,
            fmore_secs: Some(427.7),
            randfl_secs: Some(1552.7),
            time_reduction_pct: relative_reduction_pct(427.7, 1552.7),
            accuracy_improvement_pct: Some(44.9),
        };
        let md = headline_table(&[sim], Some(&cluster)).to_markdown();
        assert!(md.contains("simulation CIFAR-10"));
        assert!(md.contains("cluster CIFAR-10"));
        assert!(
            md.contains("52.9%"),
            "8 vs 17 rounds is a 52.9% reduction: {md}"
        );
        assert!(md.contains("44.9%"));
        // Missing values render as n/a.
        let incomplete = SimulationHeadline {
            task: "HPNews".into(),
            accuracy_target: 0.46,
            fmore_rounds: None,
            randfl_rounds: None,
            round_reduction_pct: None,
            accuracy_improvement_pct: None,
        };
        let md = headline_table(&[incomplete], None).to_markdown();
        assert!(md.contains("n/a"));
    }
}
