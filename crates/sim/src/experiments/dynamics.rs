//! Dynamic-MEC robustness experiments (beyond the paper's static figures).
//!
//! The paper argues (§I, §VI) that an incentive mechanism for MEC must hold up in a
//! *dynamic* environment — nodes join, leave, straggle, and drop mid-round — but evaluates
//! on a cluster where every selected winner finishes. These experiments run the
//! churn-capable cluster loop of [`fmore_mec::dynamics`] to quantify the robustness claims:
//!
//! * **dropout sweep** — final accuracy and time-to-accuracy for FMore vs RandFL as the
//!   per-winner dropout rate grows (does the auction's node quality cushion churn?),
//! * **churn curves** — the Figs. 12–13 accuracy/time comparison re-run under a moderate
//!   churn model,
//! * **waste sweep** — payment waste and deadline misses as the straggler rate grows (what
//!   does churn cost the aggregator in incentive spend?).
//!
//! Like every experiment, these are declarative specs handed to the shared
//! [`ScenarioRunner`]; all sweep points of a figure run in parallel on the worker pool and
//! results are bit-identical across pool sizes.

use crate::error::SimError;
use crate::scenario::{ClusterOutcome, ClusterScenarioSpec, ScenarioRunner};
use crate::series::Table;
use fmore_mec::cluster::{ClusterConfig, ClusterStrategy};
use fmore_mec::dynamics::{ChurnModel, DynamicsConfig};

/// Configuration of the dynamic-MEC experiments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DynamicsExperimentConfig {
    /// The base (static) cluster configuration; churn is attached per sweep point.
    pub cluster: ClusterConfig,
    /// Cluster rounds per scenario.
    pub rounds: usize,
    /// Per-winner dropout rates swept by the dropout experiment.
    pub dropout_rates: Vec<f64>,
    /// Per-winner straggler rates swept by the waste experiment.
    pub straggler_rates: Vec<f64>,
    /// Multiplicative slowdown applied to stragglers.
    pub straggler_slowdown: f64,
    /// Server deadline per delivery wave, in simulated seconds.
    pub deadline_secs: f64,
    /// Accuracy target for the time-to-accuracy column.
    pub accuracy_target: f64,
    /// Base seed (every scenario of a figure shares it, so schemes face the same world).
    pub seed: u64,
}

impl DynamicsExperimentConfig {
    /// Quick configuration for tests and CI: a 12-node cluster, slightly larger than
    /// `ClusterConfig::fast_test` so the accuracy signal rises above the evaluation noise of
    /// a tiny test set, still finishing in a few seconds.
    pub(crate) fn quick() -> Self {
        let mut cluster = ClusterConfig::fast_test();
        cluster.fl.clients = 12;
        cluster.fl.winners_per_round = 4;
        cluster.fl.partition.clients = 12;
        cluster.fl.train_samples = 1_200;
        cluster.fl.test_samples = 400;
        Self {
            cluster,
            rounds: 4,
            dropout_rates: vec![0.0, 0.2, 0.5],
            straggler_rates: vec![0.0, 0.4, 0.8],
            straggler_slowdown: 4.0,
            deadline_secs: 60.0,
            accuracy_target: 0.3,
            seed: 45,
        }
    }

    /// The paper-scale configuration: the 31-node cluster over 20 rounds.
    pub(crate) fn paper() -> Self {
        Self {
            cluster: ClusterConfig::paper_cluster(),
            rounds: 20,
            dropout_rates: vec![0.0, 0.1, 0.2, 0.3, 0.4],
            straggler_rates: vec![0.0, 0.1, 0.2, 0.3, 0.4],
            straggler_slowdown: 3.0,
            deadline_secs: 90.0,
            accuracy_target: 0.5,
            seed: 41,
        }
    }

    /// The dynamics attached to one sweep point.
    fn dynamics(&self, dropout: f64, straggler: f64) -> DynamicsConfig {
        DynamicsConfig::new(
            ChurnModel::stable()
                .with_dropout(dropout)
                .with_stragglers(straggler, self.straggler_slowdown),
        )
        .with_deadline(self.deadline_secs)
    }

    fn spec(
        &self,
        label: String,
        strategy: ClusterStrategy,
        dropout: f64,
        straggler: f64,
    ) -> ClusterScenarioSpec {
        ClusterScenarioSpec::new(
            label,
            self.cluster.clone(),
            strategy,
            self.rounds,
            self.seed,
        )
        .with_dynamics(self.dynamics(dropout, straggler))
    }
}

/// One point of the dropout sweep: both schemes under the same dropout rate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DropoutPoint {
    /// The per-winner dropout rate.
    pub rate: f64,
    /// FMore's run at this rate.
    pub fmore: ClusterOutcome,
    /// RandFL's run at this rate.
    pub randfl: ClusterOutcome,
}

/// The dropout sweep: FMore vs RandFL as the dropout rate grows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DropoutSweep {
    /// One point per swept rate, in rate order.
    pub points: Vec<DropoutPoint>,
    /// The accuracy target of the time-to-accuracy column.
    pub accuracy_target: f64,
}

impl DropoutSweep {
    /// Markdown table: per rate, each scheme's final accuracy, completion rate, and
    /// time-to-target.
    pub(crate) fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Dropout sweep: graceful degradation under churn (dynamic MEC)",
            &[
                "dropout rate",
                "FMore final acc",
                "RandFL final acc",
                "FMore completion",
                "RandFL completion",
                "FMore t-to-acc (s)",
                "RandFL t-to-acc (s)",
            ],
        );
        let fmt_time = |t: Option<f64>| t.map_or("-".to_string(), |t| format!("{t:.1}"));
        for p in &self.points {
            table.push_row(&[
                format!("{:.2}", p.rate),
                format!("{:.4}", p.fmore.history.final_accuracy()),
                format!("{:.4}", p.randfl.history.final_accuracy()),
                format!("{:.3}", p.fmore.history.mean_completion_rate()),
                format!("{:.3}", p.randfl.history.mean_completion_rate()),
                fmt_time(p.fmore.history.time_to_accuracy(self.accuracy_target)),
                fmt_time(p.randfl.history.time_to_accuracy(self.accuracy_target)),
            ]);
        }
        table
    }
}

/// Runs the dropout sweep: every (rate, scheme) scenario in parallel on the runner's pool.
///
/// # Errors
///
/// Propagates cluster construction and training failures.
pub(crate) fn run_dropout_sweep(
    runner: &ScenarioRunner,
    config: &DynamicsExperimentConfig,
) -> Result<DropoutSweep, SimError> {
    let mut specs = Vec::new();
    for &rate in &config.dropout_rates {
        for strategy in [ClusterStrategy::FMore, ClusterStrategy::RandFL] {
            specs.push(config.spec(
                format!("{} dropout={rate:.2}", strategy.name()),
                strategy,
                rate,
                0.0,
            ));
        }
    }
    let mut outcomes = runner.run_clusters(&specs)?.into_iter();
    let points = config
        .dropout_rates
        .iter()
        .map(|&rate| DropoutPoint {
            rate,
            fmore: outcomes.next().expect("one FMore outcome per rate"),
            randfl: outcomes.next().expect("one RandFL outcome per rate"),
        })
        .collect();
    Ok(DropoutSweep {
        points,
        accuracy_target: config.accuracy_target,
    })
}

/// The Figs. 12–13 comparison re-run under a moderate churn model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChurnCurves {
    /// One outcome per scheme, FMore first.
    pub outcomes: Vec<ClusterOutcome>,
    /// The accuracy target of the time-to-accuracy summary row.
    pub accuracy_target: f64,
}

impl ChurnCurves {
    /// Markdown table: per-round accuracy and cumulative time of every scheme, plus summary
    /// rows with the churn accounting and each scheme's time to the accuracy target.
    pub(crate) fn to_table(&self) -> Table {
        let mut headers = vec!["round".to_string()];
        for o in &self.outcomes {
            headers.push(format!("{} accuracy", o.strategy));
            headers.push(format!("{} time (s)", o.strategy));
        }
        let mut table = Table {
            title: "Cluster comparison under churn: accuracy and training time (dynamic MEC)"
                .to_string(),
            headers,
            rows: Vec::new(),
        };
        let rounds = self
            .outcomes
            .iter()
            .map(|o| o.history.rounds.len())
            .max()
            .unwrap_or(0);
        for r in 0..rounds {
            let mut row = vec![(r + 1).to_string()];
            for o in &self.outcomes {
                let acc = o
                    .history
                    .rounds
                    .get(r)
                    .map_or(f64::NAN, |x| x.learning.accuracy);
                let time = o
                    .history
                    .rounds
                    .get(r)
                    .map_or(f64::NAN, |x| x.cumulative_secs);
                row.push(format!("{acc:.4}"));
                row.push(format!("{time:.1}"));
            }
            table.rows.push(row);
        }
        let mut summary = vec!["dropouts/replacements".to_string()];
        for o in &self.outcomes {
            summary.push(format!("{}", o.history.total_dropouts()));
            summary.push(format!("{}", o.history.total_replacements()));
        }
        table.rows.push(summary);
        let mut target_row = vec![format!("t-to-acc {:.2} (s)", self.accuracy_target)];
        for o in &self.outcomes {
            let t = o
                .history
                .time_to_accuracy(self.accuracy_target)
                .map_or("-".to_string(), |t| format!("{t:.1}"));
            target_row.push(t);
            target_row.push(String::new());
        }
        table.rows.push(target_row);
        table
    }
}

/// Runs the churn-curve comparison: both schemes under the same moderate churn model.
///
/// # Errors
///
/// Propagates cluster construction and training failures.
pub(crate) fn run_churn_curves(
    runner: &ScenarioRunner,
    config: &DynamicsExperimentConfig,
) -> Result<ChurnCurves, SimError> {
    let churn = ChurnModel::edge_default().with_stragglers(0.2, config.straggler_slowdown);
    let dynamics = DynamicsConfig::new(churn).with_deadline(config.deadline_secs);
    let specs: Vec<ClusterScenarioSpec> = [ClusterStrategy::FMore, ClusterStrategy::RandFL]
        .into_iter()
        .map(|strategy| {
            ClusterScenarioSpec::new(
                format!("{} under churn", strategy.name()),
                config.cluster.clone(),
                strategy,
                config.rounds,
                config.seed,
            )
            .with_dynamics(dynamics)
        })
        .collect();
    Ok(ChurnCurves {
        outcomes: runner.run_clusters(&specs)?,
        accuracy_target: config.accuracy_target,
    })
}

/// One point of the straggler/waste sweep (FMore only — RandFL pays nothing).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WastePoint {
    /// The per-winner straggler rate.
    pub rate: f64,
    /// FMore's run at this rate.
    pub outcome: ClusterOutcome,
}

/// The straggler sweep: what churn costs the aggregator in wasted incentive spend.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WasteSweep {
    /// One point per swept rate, in rate order.
    pub points: Vec<WastePoint>,
}

impl WasteSweep {
    /// Markdown table: per rate, the useful and wasted payment and the churn counters.
    pub(crate) fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Straggler sweep: payment waste under deadline pressure (dynamic MEC)",
            &[
                "straggler rate",
                "useful payment",
                "wasted payment",
                "stragglers",
                "deadline misses",
                "completion",
            ],
        );
        for p in &self.points {
            let h = &p.outcome.history;
            let useful: f64 = h.rounds.iter().map(|r| r.learning.total_payment()).sum();
            table.push_row(&[
                format!("{:.2}", p.rate),
                format!("{useful:.3}"),
                format!("{:.3}", h.total_wasted_payment()),
                format!("{}", h.total_stragglers()),
                format!("{}", h.total_deadline_misses()),
                format!("{:.3}", h.mean_completion_rate()),
            ]);
        }
        table
    }
}

/// Runs the straggler/waste sweep for FMore.
///
/// # Errors
///
/// Propagates cluster construction and training failures.
pub(crate) fn run_waste_sweep(
    runner: &ScenarioRunner,
    config: &DynamicsExperimentConfig,
) -> Result<WasteSweep, SimError> {
    let specs: Vec<ClusterScenarioSpec> = config
        .straggler_rates
        .iter()
        .map(|&rate| {
            config.spec(
                format!("FMore stragglers={rate:.2}"),
                ClusterStrategy::FMore,
                0.0,
                rate,
            )
        })
        .collect();
    let outcomes = runner.run_clusters(&specs)?;
    Ok(WasteSweep {
        points: config
            .straggler_rates
            .iter()
            .zip(outcomes)
            .map(|(&rate, outcome)| WastePoint { rate, outcome })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_sweep_compares_both_schemes_per_rate() {
        let config = DynamicsExperimentConfig::quick();
        let sweep = run_dropout_sweep(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(sweep.points.len(), config.dropout_rates.len());
        for p in &sweep.points {
            assert_eq!(p.fmore.strategy, "FMore");
            assert_eq!(p.randfl.strategy, "RandFL");
            assert_eq!(p.fmore.history.rounds.len(), config.rounds);
        }
        // Zero dropout completes everything; heavy dropout does not.
        assert_eq!(sweep.points[0].fmore.history.total_dropouts(), 0);
        assert!((sweep.points[0].fmore.history.mean_completion_rate() - 1.0).abs() < 1e-12);
        let heavy = sweep.points.last().unwrap();
        assert!(heavy.fmore.history.total_dropouts() > 0);
        let md = sweep.to_table().to_markdown();
        assert!(md.contains("FMore final acc") && md.contains("0.50"));
    }

    #[test]
    fn fmore_degrades_more_gracefully_than_randfl_under_dropout() {
        // The acceptance gate of the dynamics subsystem: at every swept dropout rate
        // FMore reaches at least RandFL's final accuracy, and whenever RandFL reaches the
        // accuracy target at all, FMore reaches it no later in simulated time.
        let config = DynamicsExperimentConfig::quick();
        let sweep = run_dropout_sweep(&ScenarioRunner::new(), &config).unwrap();
        for p in &sweep.points {
            assert!(
                p.fmore.history.final_accuracy() >= p.randfl.history.final_accuracy(),
                "FMore {:.4} must not fall below RandFL {:.4} at dropout {:.2}",
                p.fmore.history.final_accuracy(),
                p.randfl.history.final_accuracy(),
                p.rate
            );
            if let Some(randfl_t) = p.randfl.history.time_to_accuracy(config.accuracy_target) {
                let fmore_t = p
                    .fmore
                    .history
                    .time_to_accuracy(config.accuracy_target)
                    .expect("FMore reaches any target RandFL reaches");
                assert!(
                    fmore_t <= randfl_t,
                    "dropout {:.2}: FMore time-to-accuracy {fmore_t:.1}s must not exceed \
                     RandFL's {randfl_t:.1}s",
                    p.rate
                );
            }
        }
    }

    #[test]
    fn churn_curves_report_both_schemes_and_accounting() {
        let config = DynamicsExperimentConfig::quick();
        let curves = run_churn_curves(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(curves.outcomes.len(), 2);
        assert_eq!(curves.outcomes[0].strategy, "FMore");
        assert_eq!(curves.outcomes[1].strategy, "RandFL");
        let md = curves.to_table().to_markdown();
        assert!(md.contains("FMore accuracy") && md.contains("dropouts/replacements"));
        assert!(
            md.contains("t-to-acc 0.30"),
            "summary must report time to the accuracy target"
        );
    }

    #[test]
    fn waste_sweep_grows_with_the_straggler_rate() {
        let config = DynamicsExperimentConfig::quick();
        let sweep = run_waste_sweep(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(sweep.points.len(), config.straggler_rates.len());
        // No stragglers, no waste.
        assert_eq!(sweep.points[0].outcome.history.total_wasted_payment(), 0.0);
        assert_eq!(sweep.points[0].outcome.history.total_stragglers(), 0);
        // The heaviest rate produces straggler events.
        let heavy = sweep.points.last().unwrap();
        assert!(heavy.outcome.history.total_stragglers() > 0);
        assert!(
            heavy.outcome.history.total_stragglers()
                >= sweep.points[0].outcome.history.total_stragglers()
        );
        let md = sweep.to_table().to_markdown();
        assert!(md.contains("wasted payment"));
    }

    #[test]
    fn paper_config_scales_up_the_quick_one() {
        let q = DynamicsExperimentConfig::quick();
        let p = DynamicsExperimentConfig::paper();
        assert!(p.rounds > q.rounds);
        assert_eq!(p.cluster.fl.clients, 31);
        assert!(p.dropout_rates.len() >= q.dropout_rates.len());
    }
}
