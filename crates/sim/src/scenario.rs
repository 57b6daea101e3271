//! The unified scenario engine: declarative specs plus a pooled runner.
//!
//! A **scenario** is a data description of one training run — task, selection strategy,
//! round budget, seed — with no loop of its own. The [`ScenarioRunner`] executes scenarios
//! on the shared worker pool of [`fmore_fl::engine`]: independent scenarios (the sweep points
//! of a figure, the three schemes of an accuracy comparison) run in parallel, while each
//! scenario's own local training fans out on the same pool (nested fan-outs degrade to
//! inline execution inside pool workers, so the pool never deadlocks and determinism is
//! preserved).
//!
//! Every experiment module in [`crate::experiments`] is a thin presentation layer over this
//! engine: it declares specs, hands them to a runner, and formats the histories that come
//! back. Adding a new scenario — another scheme, another sweep axis, another task — is a data
//! change here, not a new copy of the round loop.

use crate::error::SimError;
use fmore_fl::engine::{shared_pool, RoundEngine, Task, WorkerPool};
use fmore_fl::metrics::TrainingHistory;
use fmore_fl::selection::SelectionStrategy;
use fmore_fl::trainer::FederatedTrainer;
use fmore_fl::FlConfig;
use fmore_fl::FlError;
use fmore_mec::cluster::{ClusterConfig, ClusterHistory, ClusterStrategy, MecCluster};
use fmore_mec::dynamics::DynamicsConfig;
use std::sync::Arc;

/// A declarative description of one federated-learning run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable label used in reports (e.g. `"FMore"`, `"N=100"`).
    pub label: String,
    /// The federated-learning configuration.
    pub fl: FlConfig,
    /// How participants are selected each round.
    pub strategy: SelectionStrategy,
    /// Number of federated rounds.
    pub rounds: usize,
    /// RNG seed; scenarios with the same spec and seed produce bit-identical histories.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a scenario spec.
    pub fn new(
        label: impl Into<String>,
        fl: FlConfig,
        strategy: SelectionStrategy,
        rounds: usize,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            fl,
            strategy,
            rounds,
            seed,
        }
    }

    /// Returns the spec with the population `N` replaced (partition follows; the winner
    /// count is clamped to the new population).
    pub(crate) fn with_population(mut self, n: usize) -> Self {
        self.fl.clients = n;
        self.fl.partition.clients = n;
        if self.fl.winners_per_round > n {
            self.fl.winners_per_round = n;
        }
        self
    }

    /// Returns the spec with the per-round winner count `K` replaced (clamped to `N`).
    pub(crate) fn with_winners(mut self, k: usize) -> Self {
        self.fl.winners_per_round = k.min(self.fl.clients);
        self
    }
}

/// The result of one executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The spec's label.
    pub label: String,
    /// The selection strategy's report name ("FMore", "RandFL", …).
    pub strategy: String,
    /// The full training history.
    pub history: TrainingHistory,
}

/// A declarative description of one MEC-cluster run (Figs. 12–13).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScenarioSpec {
    /// Human-readable label used in reports.
    pub label: String,
    /// The cluster configuration.
    pub cluster: ClusterConfig,
    /// The scheme the cluster runs.
    pub strategy: ClusterStrategy,
    /// Number of cluster rounds.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterScenarioSpec {
    /// Creates a cluster scenario spec.
    pub fn new(
        label: impl Into<String>,
        cluster: ClusterConfig,
        strategy: ClusterStrategy,
        rounds: usize,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            cluster,
            strategy,
            rounds,
            seed,
        }
    }

    /// Returns the spec with churn/deadline dynamics attached (see
    /// [`fmore_mec::dynamics`]) — the knob that turns a static cluster scenario into a
    /// dynamic-MEC one.
    pub fn with_dynamics(mut self, dynamics: DynamicsConfig) -> Self {
        self.cluster.dynamics = Some(dynamics);
        self
    }
}

/// The result of one executed cluster scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// The spec's label.
    pub label: String,
    /// The scheme's report name.
    pub strategy: String,
    /// The full cluster history (learning metrics plus simulated wall-clock).
    pub history: ClusterHistory,
}

/// Executes scenarios on a worker pool shared with the round engine.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    pool: Arc<WorkerPool>,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioRunner {
    /// A runner on the process-wide shared pool.
    pub fn new() -> Self {
        Self {
            pool: shared_pool(),
        }
    }

    /// A runner on a private pool with `threads` workers (`0` means the default size); used
    /// by the determinism tests to compare 1-thread and N-thread execution.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// A runner submitting to an existing pool.
    pub(crate) fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self { pool }
    }

    /// A round engine bound to this runner's pool (what the executed trainers run on).
    pub(crate) fn engine(&self) -> RoundEngine {
        RoundEngine::with_pool(Arc::clone(&self.pool))
    }

    /// Builds (without running) the trainer a spec describes — for experiments that need to
    /// inspect the constructed population (e.g. the Fig. 8 score distribution).
    ///
    /// # Errors
    ///
    /// Propagates trainer-construction failures.
    pub(crate) fn trainer(&self, spec: &ScenarioSpec) -> Result<FederatedTrainer, SimError> {
        Ok(FederatedTrainer::with_engine(
            spec.fl.clone(),
            spec.strategy.clone(),
            spec.seed,
            self.engine(),
        )?)
    }

    /// Runs one scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates trainer-construction and auction failures.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioOutcome, SimError> {
        let mut trainer = self.trainer(spec)?;
        let strategy = trainer.strategy().name().to_string();
        let history = trainer.run(spec.rounds)?;
        Ok(ScenarioOutcome {
            label: spec.label.clone(),
            strategy,
            history,
        })
    }

    /// Runs independent scenarios in parallel on the pool, returning outcomes in spec order.
    ///
    /// # Errors
    ///
    /// Returns the first (in spec order) scenario failure.
    pub fn run_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioOutcome>, SimError> {
        let results = self.try_map(specs.to_vec(), {
            let pool = Arc::clone(&self.pool);
            move |spec: ScenarioSpec| ScenarioRunner::with_pool(Arc::clone(&pool)).run(&spec)
        })?;
        results.into_iter().collect()
    }

    /// Runs one cluster scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction, auction, and training failures.
    pub fn run_cluster(&self, spec: &ClusterScenarioSpec) -> Result<ClusterOutcome, SimError> {
        let mut cluster = MecCluster::with_engine(
            spec.cluster.clone(),
            spec.strategy,
            spec.seed,
            self.engine(),
        )?;
        let history = cluster.run(spec.rounds)?;
        Ok(ClusterOutcome {
            label: spec.label.clone(),
            strategy: spec.strategy.name().to_string(),
            history,
        })
    }

    /// Runs independent cluster scenarios in parallel on the pool, in spec order.
    ///
    /// # Errors
    ///
    /// Returns the first (in spec order) scenario failure.
    pub fn run_clusters(
        &self,
        specs: &[ClusterScenarioSpec],
    ) -> Result<Vec<ClusterOutcome>, SimError> {
        let results = self.try_map(specs.to_vec(), {
            let pool = Arc::clone(&self.pool);
            move |spec: ClusterScenarioSpec| {
                ScenarioRunner::with_pool(Arc::clone(&pool)).run_cluster(&spec)
            }
        })?;
        results.into_iter().collect()
    }

    /// Applies `f` to every input in parallel on the pool, preserving input order — the
    /// primitive behind sweep experiments (one auction game or training run per point).
    ///
    /// Panics if any task panics (the batch-driver contract: an experiment point that dies
    /// should abort its figure). Service-facing callers use
    /// [`ScenarioRunner::try_map`] instead, which surfaces the panic as a typed error.
    pub(crate) fn map<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        self.try_map(inputs, f)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Checked twin of [`ScenarioRunner::map`]: every task runs through the executor's
    /// panic-catching path, so one panicking input yields [`SimError::Fl`] (carrying the
    /// [`fmore_fl::JobPanic`] attribution) after every sibling completed — the pool and the
    /// caller both survive.
    ///
    /// # Errors
    ///
    /// The first (in input order) task panic, as a typed error.
    pub(crate) fn try_map<I, T, F>(&self, inputs: Vec<I>, f: F) -> Result<Vec<T>, SimError>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let tasks: Vec<Task<T>> = inputs
            .into_iter()
            .map(|input| {
                let f = Arc::clone(&f);
                Box::new(move || f(input)) as Task<T>
            })
            .collect();
        let mut out = Vec::with_capacity(tasks.len());
        for slot in self.pool.run_indexed_checked(tasks) {
            out.push(slot.map_err(FlError::from)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_ml::dataset::TaskKind;

    fn quick_spec(strategy: SelectionStrategy, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            "quick",
            FlConfig::fast_test(TaskKind::MnistO),
            strategy,
            2,
            seed,
        )
    }

    #[test]
    fn spec_builders_keep_config_consistent() {
        let spec = quick_spec(SelectionStrategy::fmore(), 1)
            .with_population(6)
            .with_winners(10);
        assert_eq!(spec.fl.clients, 6);
        assert_eq!(spec.fl.partition.clients, 6);
        assert_eq!(spec.fl.winners_per_round, 6, "K is clamped to N");
        assert!(spec.fl.validate().is_ok());
    }

    #[test]
    fn runner_executes_a_scenario() {
        let runner = ScenarioRunner::new();
        let outcome = runner
            .run(&quick_spec(SelectionStrategy::fmore(), 3))
            .unwrap();
        assert_eq!(outcome.strategy, "FMore");
        assert_eq!(outcome.history.rounds.len(), 2);
        assert!(outcome.history.total_payment() > 0.0);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let specs: Vec<ScenarioSpec> = [
            SelectionStrategy::fmore(),
            SelectionStrategy::random(),
            SelectionStrategy::fixed_first(4),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, s)| quick_spec(s, 10 + i as u64))
        .collect();

        let runner = ScenarioRunner::new();
        let parallel = runner.run_all(&specs).unwrap();
        let sequential: Vec<ScenarioOutcome> =
            specs.iter().map(|s| runner.run(s).unwrap()).collect();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel[0].strategy, "FMore");
        assert_eq!(parallel[1].strategy, "RandFL");
        assert_eq!(parallel[2].strategy, "FixFL");
    }

    #[test]
    fn pool_size_does_not_change_outcomes() {
        let spec = quick_spec(SelectionStrategy::fmore(), 21);
        let one = ScenarioRunner::with_threads(1).run(&spec).unwrap();
        let many = ScenarioRunner::with_threads(4).run(&spec).unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn cluster_scenarios_run_in_parallel() {
        use fmore_mec::cluster::ClusterConfig;
        let specs = vec![
            ClusterScenarioSpec::new(
                "fmore",
                ClusterConfig::fast_test(),
                ClusterStrategy::FMore,
                2,
                33,
            ),
            ClusterScenarioSpec::new(
                "randfl",
                ClusterConfig::fast_test(),
                ClusterStrategy::RandFL,
                2,
                33,
            ),
        ];
        let runner = ScenarioRunner::new();
        let outcomes = runner.run_clusters(&specs).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].strategy, "FMore");
        assert_eq!(outcomes[1].strategy, "RandFL");
        assert_eq!(outcomes[0].history.rounds.len(), 2);
        // Parallel matches sequential.
        assert_eq!(outcomes[0], runner.run_cluster(&specs[0]).unwrap());
    }

    #[test]
    fn cluster_spec_dynamics_knob_enables_churn() {
        use fmore_mec::cluster::ClusterConfig;
        use fmore_mec::dynamics::{ChurnModel, DynamicsConfig};
        let spec = ClusterScenarioSpec::new(
            "churny",
            ClusterConfig::fast_test(),
            ClusterStrategy::FMore,
            2,
            45,
        )
        .with_dynamics(DynamicsConfig::new(ChurnModel::edge_default()).with_deadline(90.0));
        assert!(spec.cluster.dynamics.is_some());
        let outcome = ScenarioRunner::new().run_cluster(&spec).unwrap();
        assert_eq!(outcome.history.rounds.len(), 2);
        // Pool size does not change a dynamic outcome either.
        let one = ScenarioRunner::with_threads(1).run_cluster(&spec).unwrap();
        assert_eq!(outcome, one);
    }

    #[test]
    fn map_preserves_input_order() {
        let runner = ScenarioRunner::with_threads(3);
        let squares = runner.map((0..32usize).collect(), |i| i * i);
        assert_eq!(squares, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_surfaces_panics_as_typed_errors() {
        let runner = ScenarioRunner::with_threads(2);
        let err = runner
            .try_map((0..8usize).collect(), |i| {
                assert!(i != 3, "input three dies");
                i * 2
            })
            .unwrap_err();
        assert!(
            matches!(err, SimError::Fl(FlError::JobPanic(ref p)) if p.slot == 3),
            "{err}"
        );
        // The pool survives the poisoned batch.
        assert_eq!(runner.try_map(vec![5usize], |i| i * 2).unwrap(), vec![10]);
    }

    #[test]
    fn failures_propagate_from_parallel_runs() {
        let mut bad = quick_spec(SelectionStrategy::fmore(), 1);
        bad.fl.winners_per_round = 0;
        let runner = ScenarioRunner::new();
        let err = runner.run_all(&[bad]).unwrap_err();
        assert!(matches!(err, SimError::Fl(_)));
    }
}
