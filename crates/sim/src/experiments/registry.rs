//! The declarative experiment registry: every paper figure as a named, data-described entry.
//!
//! The registry is the single catalogue of what this reproduction can regenerate. Each entry
//! names the experiment, the paper figure it reproduces, and a runner function that executes
//! the experiment's scenarios through a [`ScenarioRunner`] and returns presentation-ready
//! tables. Drivers (examples, tests, CI smoke runs) iterate the registry instead of
//! hard-coding module calls, so adding a figure is one new entry plus its spec — no new
//! driver code.

use crate::error::SimError;
use crate::experiments::parameter_impact::{self, Axis, ParameterImpactConfig};
use crate::experiments::{
    accuracy, adversary_soak, chaos_soak, cluster, dynamics, headline, scale, scores, service_soak,
};
use crate::scenario::ScenarioRunner;
use crate::series::Table;
use fmore_ml::dataset::TaskKind;

/// How expensive a registry run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Sub-second configurations for tests, CI, and smoke runs.
    Quick,
    /// The full Section V parameters (minutes per experiment).
    Paper,
}

/// The output of one registry experiment: presentation-ready Markdown tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// The registry name of the experiment.
    pub name: &'static str,
    /// The produced tables (one per figure panel, typically).
    pub tables: Vec<Table>,
}

impl ExperimentReport {
    /// Renders every table as one Markdown document.
    pub fn to_markdown(&self) -> String {
        self.tables
            .iter()
            .map(Table::to_markdown)
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

type RunFn = fn(&ScenarioRunner, Fidelity) -> Result<ExperimentReport, SimError>;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// Registry name (stable, kebab-case).
    pub name: &'static str,
    /// The paper figure(s) the experiment reproduces.
    pub figure: &'static str,
    /// One-line description.
    pub summary: &'static str,
    run: RunFn,
}

impl ExperimentDef {
    /// Runs the experiment at the requested fidelity on the given runner.
    ///
    /// # Errors
    ///
    /// Propagates scenario failures.
    pub fn run(
        &self,
        runner: &ScenarioRunner,
        fidelity: Fidelity,
    ) -> Result<ExperimentReport, SimError> {
        (self.run)(runner, fidelity)
    }
}

fn accuracy_config(fidelity: Fidelity) -> accuracy::AccuracyConfig {
    match fidelity {
        Fidelity::Quick => accuracy::AccuracyConfig::quick(TaskKind::MnistO),
        Fidelity::Paper => accuracy::AccuracyConfig::paper(TaskKind::MnistO),
    }
}

fn cluster_config(fidelity: Fidelity) -> cluster::ClusterExperimentConfig {
    match fidelity {
        Fidelity::Quick => cluster::ClusterExperimentConfig::quick(),
        Fidelity::Paper => cluster::ClusterExperimentConfig::paper(),
    }
}

fn headline_targets(fidelity: Fidelity) -> (f64, f64) {
    match fidelity {
        Fidelity::Quick => (0.3, 0.0),
        Fidelity::Paper => (0.95, 0.5),
    }
}

fn report_accuracy(figure: &accuracy::AccuracyFigure) -> ExperimentReport {
    ExperimentReport {
        name: "accuracy",
        tables: vec![figure.to_table()],
    }
}

fn report_cluster(figure: &cluster::ClusterFigure) -> ExperimentReport {
    ExperimentReport {
        name: "cluster",
        tables: vec![figure.to_table()],
    }
}

fn report_headline(
    figure: &accuracy::AccuracyFigure,
    cluster_figure: &cluster::ClusterFigure,
    fidelity: Fidelity,
) -> ExperimentReport {
    let (accuracy_target, cluster_target) = headline_targets(fidelity);
    let sim_headline = headline::simulation_headline(figure, accuracy_target);
    let cluster_headline = headline::cluster_headline(cluster_figure, cluster_target);
    ExperimentReport {
        name: "headline",
        tables: vec![headline::headline_table(
            &[sim_headline],
            Some(&cluster_headline),
        )],
    }
}

fn run_accuracy(runner: &ScenarioRunner, fidelity: Fidelity) -> Result<ExperimentReport, SimError> {
    let figure = accuracy::run(runner, &accuracy_config(fidelity))?;
    Ok(report_accuracy(&figure))
}

fn run_scores(runner: &ScenarioRunner, fidelity: Fidelity) -> Result<ExperimentReport, SimError> {
    let dist = scores::run(runner, &accuracy_config(fidelity))?;
    Ok(ExperimentReport {
        name: "scores",
        tables: vec![dist.to_table()],
    })
}

fn run_parameter_impact(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
    axis: Axis,
    name: &'static str,
) -> Result<ExperimentReport, SimError> {
    let config = match fidelity {
        Fidelity::Quick => ParameterImpactConfig::quick(axis),
        Fidelity::Paper => ParameterImpactConfig::paper(axis),
    };
    Ok(ExperimentReport {
        name,
        tables: parameter_impact::run(runner, &config)?.tables(),
    })
}

fn run_cluster(runner: &ScenarioRunner, fidelity: Fidelity) -> Result<ExperimentReport, SimError> {
    let figure = cluster::run(runner, &cluster_config(fidelity))?;
    Ok(report_cluster(&figure))
}

fn run_headline(runner: &ScenarioRunner, fidelity: Fidelity) -> Result<ExperimentReport, SimError> {
    let figure = accuracy::run(runner, &accuracy_config(fidelity))?;
    let cluster_figure = cluster::run(runner, &cluster_config(fidelity))?;
    Ok(report_headline(&figure, &cluster_figure, fidelity))
}

fn dynamics_config(fidelity: Fidelity) -> dynamics::DynamicsExperimentConfig {
    match fidelity {
        Fidelity::Quick => dynamics::DynamicsExperimentConfig::quick(),
        Fidelity::Paper => dynamics::DynamicsExperimentConfig::paper(),
    }
}

fn run_churn_dropout(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let sweep = dynamics::run_dropout_sweep(runner, &dynamics_config(fidelity))?;
    Ok(ExperimentReport {
        name: "churn-dropout",
        tables: vec![sweep.to_table()],
    })
}

fn run_churn_time(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let curves = dynamics::run_churn_curves(runner, &dynamics_config(fidelity))?;
    Ok(ExperimentReport {
        name: "churn-time",
        tables: vec![curves.to_table()],
    })
}

fn run_churn_waste(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let sweep = dynamics::run_waste_sweep(runner, &dynamics_config(fidelity))?;
    Ok(ExperimentReport {
        name: "churn-waste",
        tables: vec![sweep.to_table()],
    })
}

fn scale_config(fidelity: Fidelity) -> scale::ScaleConfig {
    match fidelity {
        Fidelity::Quick => scale::ScaleConfig::quick(),
        Fidelity::Paper => scale::ScaleConfig::paper(),
    }
}

fn run_scale_selection(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let figure = scale::run_selection(runner, &scale_config(fidelity))?;
    Ok(ExperimentReport {
        name: "scale-selection",
        tables: vec![figure.to_table()],
    })
}

fn run_scale_memory(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let figure = scale::run_memory(runner, &scale_config(fidelity))?;
    Ok(ExperimentReport {
        name: "scale-memory",
        tables: vec![figure.to_table()],
    })
}

fn run_scale_parity(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let figure = scale::run_parity(runner, &scale_config(fidelity))?;
    Ok(ExperimentReport {
        name: "scale-parity",
        tables: vec![figure.to_table()],
    })
}

fn run_service_soak(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let config = match fidelity {
        Fidelity::Quick => service_soak::SoakConfig::quick(),
        Fidelity::Paper => service_soak::SoakConfig::paper(),
    };
    service_soak::run(runner, &config)
}

fn run_chaos_soak(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let config = match fidelity {
        Fidelity::Quick => chaos_soak::ChaosConfig::quick(),
        Fidelity::Paper => chaos_soak::ChaosConfig::paper(),
    };
    chaos_soak::run(runner, &config)
}

fn run_adversary_soak(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<ExperimentReport, SimError> {
    let config = match fidelity {
        Fidelity::Quick => adversary_soak::AdversaryConfig::quick(),
        Fidelity::Paper => adversary_soak::AdversaryConfig::paper(),
    };
    adversary_soak::run(runner, &config)
}

/// Every experiment of the paper's evaluation, in figure order.
pub(crate) const REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        name: "accuracy",
        figure: "Figs. 4-7",
        summary: "accuracy & loss per round for FMore / RandFL / FixFL",
        run: run_accuracy,
    },
    ExperimentDef {
        name: "scores",
        figure: "Fig. 8",
        summary: "distribution of winner quality scores per scheme",
        run: run_scores,
    },
    ExperimentDef {
        name: "impact-n",
        figure: "Fig. 9",
        summary: "rounds-to-accuracy and (payment, score) as N varies",
        run: |runner, fidelity| run_parameter_impact(runner, fidelity, Axis::N, "impact-n"),
    },
    ExperimentDef {
        name: "impact-k",
        figure: "Fig. 10",
        summary: "rounds-to-accuracy and (payment, score) as K varies",
        run: |runner, fidelity| run_parameter_impact(runner, fidelity, Axis::K, "impact-k"),
    },
    ExperimentDef {
        name: "impact-psi",
        figure: "Fig. 11",
        summary: "training speed and winner-rank spread as psi varies",
        run: |runner, fidelity| run_parameter_impact(runner, fidelity, Axis::Psi, "impact-psi"),
    },
    ExperimentDef {
        name: "cluster",
        figure: "Figs. 12-13",
        summary: "accuracy and cumulative time on the simulated 32-node cluster",
        run: run_cluster,
    },
    ExperimentDef {
        name: "headline",
        figure: "SS I / SS V text",
        summary: "headline round-reduction and accuracy-improvement percentages",
        run: run_headline,
    },
    ExperimentDef {
        name: "churn-dropout",
        figure: "new (SS I / SS VI dynamics)",
        summary: "final accuracy and time-to-accuracy as the winner dropout rate grows",
        run: run_churn_dropout,
    },
    ExperimentDef {
        name: "churn-time",
        figure: "Figs. 12-13 under churn",
        summary: "accuracy and cumulative time on the cluster under a dynamic environment",
        run: run_churn_time,
    },
    ExperimentDef {
        name: "churn-waste",
        figure: "new (SS I / SS VI dynamics)",
        summary: "payment waste and deadline misses as the straggler rate grows",
        run: run_churn_waste,
    },
    ExperimentDef {
        name: "scale-selection",
        figure: "new (population scale, SS V overhead)",
        summary: "streamed top-K selection rounds as N sweeps from 1e3 toward 1e6",
        run: run_scale_selection,
    },
    ExperimentDef {
        name: "scale-memory",
        figure: "new (population scale)",
        summary: "peak resident bid bytes: bounded streaming vs a dense O(N) store",
        run: run_scale_memory,
    },
    ExperimentDef {
        name: "scale-parity",
        figure: "new (population scale)",
        summary: "bit-parity of streamed winners/payments against the dense full-sort path",
        run: run_scale_parity,
    },
    ExperimentDef {
        name: "service-soak",
        figure: "new (SS I / SS VI always-on service)",
        summary: "N concurrent mixed-scheme jobs on one service, interleaved == solo",
        run: run_service_soak,
    },
    ExperimentDef {
        name: "chaos-soak",
        figure: "new (SS I / SS VI unreliable edge nodes)",
        summary: "fault-injected fleet: healthy == solo, faulted recover, checkpoint == solo",
        run: run_chaos_soak,
    },
    ExperimentDef {
        name: "adversary-soak",
        figure: "new (SS I / SS VI untrusted edge nodes)",
        summary: "Byzantine fleet: robust rules converge, FedAvg degrades, reputation bites",
        run: run_adversary_soak,
    },
];

/// Looks an experiment up by registry name.
///
/// # Errors
///
/// Returns [`SimError::UnknownExperiment`] for names not in the registry.
pub fn find(name: &str) -> Result<&'static ExperimentDef, SimError> {
    REGISTRY
        .iter()
        .find(|def| def.name == name)
        .ok_or_else(|| SimError::UnknownExperiment(name.to_string()))
}

/// Runs every registered experiment at the given fidelity, in registry order.
///
/// The `headline` entry is pure post-processing of the `accuracy` and `cluster` figures, so
/// a full registry run computes those figures exactly once and derives all three dependent
/// reports from them instead of re-training identical scenarios.
///
/// # Errors
///
/// Returns the first experiment failure.
pub fn run_all(
    runner: &ScenarioRunner,
    fidelity: Fidelity,
) -> Result<Vec<ExperimentReport>, SimError> {
    let accuracy_figure = accuracy::run(runner, &accuracy_config(fidelity))?;
    let cluster_figure = cluster::run(runner, &cluster_config(fidelity))?;
    REGISTRY
        .iter()
        .map(|def| match def.name {
            "accuracy" => Ok(report_accuracy(&accuracy_figure)),
            "cluster" => Ok(report_cluster(&cluster_figure)),
            "headline" => Ok(report_headline(&accuracy_figure, &cluster_figure, fidelity)),
            _ => def.run(runner, fidelity),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_all_sixteen_experiments() {
        assert_eq!(REGISTRY.len(), 16);
        let names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        for expected in [
            "accuracy",
            "scores",
            "impact-n",
            "impact-k",
            "impact-psi",
            "cluster",
            "headline",
            "churn-dropout",
            "churn-time",
            "churn-waste",
            "scale-selection",
            "scale-memory",
            "scale-parity",
            "service-soak",
            "chaos-soak",
            "adversary-soak",
        ] {
            assert!(names.contains(&expected), "missing experiment {expected}");
        }
        // Names are unique.
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn find_resolves_names_and_rejects_unknowns() {
        assert_eq!(find("cluster").unwrap().figure, "Figs. 12-13");
        assert!(matches!(find("nope"), Err(SimError::UnknownExperiment(_))));
    }

    #[test]
    fn every_experiment_runs_at_quick_fidelity() {
        let runner = ScenarioRunner::new();
        let reports = run_all(&runner, Fidelity::Quick).unwrap();
        assert_eq!(reports.len(), REGISTRY.len());
        for (def, report) in REGISTRY.iter().zip(&reports) {
            assert_eq!(def.name, report.name);
            assert!(!report.tables.is_empty(), "{} produced no tables", def.name);
            assert!(!report.to_markdown().is_empty());
        }
    }

    #[test]
    fn named_lookup_runs_a_single_experiment() {
        let runner = ScenarioRunner::new();
        let report = find("scores")
            .unwrap()
            .run(&runner, Fidelity::Quick)
            .unwrap();
        assert_eq!(report.name, "scores");
        assert!(report.to_markdown().contains("FMore"));
    }
}
