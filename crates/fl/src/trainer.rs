//! The federated-learning round loop (Algorithm 1 of the paper), composed from the shared
//! stages of [`crate::engine`].

use crate::aggregator::{AggregationScratch, FedAvg};
use crate::client::EdgeClient;
use crate::config::{FlConfig, ModelChoice};
use crate::engine::{self, RoundEngine, SlotState, TrainingJob};
use crate::error::FlError;
use crate::metrics::{RoundMetrics, RoundOutcome, TrainingHistory, WinnerInfo};
use crate::selection::SelectionStrategy;
use fmore_auction::{Auction, CobbDouglas, EquilibriumSolver, LinearCost, NodeId, ScoringRule};
use fmore_ml::arena::ScratchArena;
use fmore_ml::dataset::{image_spec_for, Dataset, SyntheticTextSpec, TaskKind};
use fmore_ml::model::{Model, Sequential};
use fmore_ml::models;
use fmore_ml::partition::partition_non_iid;
use fmore_numerics::rng::{derive_seed, sample_indices};
use fmore_numerics::{seeded_rng, UniformDist};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Drives federated training: client selection (random, fixed, or by FMore auction), local
/// SGD at the selected clients, FedAvg aggregation, and per-round evaluation.
///
/// All per-round work flows through the stages of [`crate::engine`]; parallel local training
/// runs on the engine's worker pool (the process-wide [`engine::shared_pool`] unless a
/// specific engine is injected via [`FederatedTrainer::with_engine`]).
pub struct FederatedTrainer {
    config: FlConfig,
    strategy: SelectionStrategy,
    train_data: Arc<Dataset>,
    test_data: Dataset,
    test_indices: Vec<usize>,
    clients: Vec<EdgeClient>,
    global: Sequential,
    auction: Option<Auction>,
    engine: RoundEngine,
    rng: StdRng,
    seed: u64,
    round: usize,
    /// Reusable per-winner-slot training state (model + arena + buffers); grown on demand,
    /// lent to the slot's job each round and reclaimed with the update.
    slots: Vec<Option<SlotState>>,
    /// Reusable snapshot of the global parameters shared with the round's jobs.
    global_params: Arc<Vec<f64>>,
    /// Scratch arena for the per-round global evaluation.
    eval_arena: ScratchArena,
    /// Reusable FedAvg accumulator.
    avg_buf: Vec<f64>,
    /// Reusable scratch of the step-6 [`FedAvg`] aggregation.
    agg_scratch: AggregationScratch,
}

impl std::fmt::Debug for FederatedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedTrainer")
            .field("task", &self.config.task.name())
            .field("strategy", &self.strategy.name())
            .field("clients", &self.clients.len())
            .field("winners_per_round", &self.config.winners_per_round)
            .field("mode", &self.engine.mode())
            .field("round", &self.round)
            .finish()
    }
}

fn generate_datasets(config: &FlConfig, rng: &mut StdRng) -> (Dataset, Dataset) {
    match config.task {
        TaskKind::HpNews => {
            let spec = SyntheticTextSpec::hpnews_like();
            (
                spec.generate(config.train_samples, rng),
                spec.generate(config.test_samples, rng),
            )
        }
        task => {
            let spec = image_spec_for(task);
            (
                spec.generate(config.train_samples, rng),
                spec.generate(config.test_samples, rng),
            )
        }
    }
}

fn build_model(config: &FlConfig, rng: &mut StdRng) -> Sequential {
    match config.model {
        ModelChoice::PaperModel => models::model_for_task(config.task, rng),
        ModelChoice::FastSurrogate => models::fast_model_for_task(config.task, rng),
    }
}

impl FederatedTrainer {
    /// Builds a trainer on the default engine (the process-wide shared worker pool).
    ///
    /// The constructor synthesises the task's train/test data, partitions it non-IID across
    /// `N` clients, draws every client's private cost parameter θ, instantiates the global
    /// model, and (for FMore strategies) builds the auction and has every client adopt its
    /// equilibrium bidding strategy.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for inconsistent configurations,
    /// [`FlError::UnknownClient`] if a fixed selection references a missing client, and
    /// [`FlError::Auction`] if the auction components cannot be constructed.
    pub fn new(config: FlConfig, strategy: SelectionStrategy, seed: u64) -> Result<Self, FlError> {
        Self::with_engine(config, strategy, seed, RoundEngine::default())
    }

    /// Builds a trainer running its parallel stages on a caller-supplied engine (an inline
    /// engine for strict single-threaded runs, a private pool, or a pool shared with other
    /// trainers).
    ///
    /// The choice of engine never affects the produced [`TrainingHistory`] — only wall-clock.
    ///
    /// # Errors
    ///
    /// As for [`FederatedTrainer::new`].
    pub fn with_engine(
        config: FlConfig,
        strategy: SelectionStrategy,
        seed: u64,
        engine: RoundEngine,
    ) -> Result<Self, FlError> {
        config.validate()?;
        if let SelectionStrategy::Fixed(indices) = &strategy {
            if indices.is_empty() {
                return Err(FlError::InvalidConfig(
                    "fixed selection must not be empty".into(),
                ));
            }
            if let Some(&bad) = indices.iter().find(|&&i| i >= config.clients) {
                return Err(FlError::UnknownClient(bad));
            }
        }

        let mut rng = seeded_rng(seed);
        let (train_data, test_data) = generate_datasets(&config, &mut rng);
        let shards = partition_non_iid(&train_data, &config.partition, &mut rng);

        let theta_dist = UniformDist::new(config.theta_range.0, config.theta_range.1)
            .map_err(fmore_auction::AuctionError::from)?;
        let mut clients: Vec<EdgeClient> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                use fmore_numerics::Distribution1D;
                let theta = theta_dist.sample(&mut rng);
                EdgeClient::new(
                    NodeId(i as u64),
                    shard,
                    theta,
                    derive_seed(seed, i as u64 + 1),
                )
            })
            .collect();

        let global = build_model(&config, &mut rng);

        let auction = match &strategy {
            SelectionStrategy::Auction(cfg) => {
                let scoring =
                    CobbDouglas::with_scale(cfg.scoring_scale, cfg.scoring_exponents.clone())?;
                let cost = LinearCost::new(cfg.cost_coefficients.clone())?;
                let bounds = vec![(0.0, 1.0); cfg.dims()];
                let solver = EquilibriumSolver::builder()
                    .scoring(scoring.clone())
                    .cost(cost)
                    .theta(theta_dist)
                    .bounds(bounds)
                    .population(config.clients)
                    .winners(config.winners_per_round)
                    .grid_size(128)
                    .build()?;
                // Step 1 of Algorithm 1, the broadcast: θ is fixed for the run, so each
                // client solves its strategy here and the solver is not needed again.
                for client in &mut clients {
                    client.adopt_strategy(&solver)?;
                }
                Some(Auction::new(
                    ScoringRule::new(scoring),
                    config.winners_per_round,
                    cfg.selection,
                    cfg.pricing,
                ))
            }
            _ => None,
        };

        let test_indices = (0..test_data.len()).collect();
        Ok(Self {
            config,
            strategy,
            train_data: Arc::new(train_data),
            test_data,
            test_indices,
            clients,
            global,
            auction,
            engine,
            rng,
            seed,
            round: 0,
            slots: Vec::new(),
            global_params: Arc::new(Vec::new()),
            eval_arena: ScratchArena::new(),
            avg_buf: Vec::new(),
            agg_scratch: AggregationScratch::new(),
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The selection strategy in use.
    pub fn strategy(&self) -> &SelectionStrategy {
        &self.strategy
    }

    /// The clients participating in the game.
    pub fn clients(&self) -> &[EdgeClient] {
        &self.clients
    }

    /// The current global model parameters.
    pub fn global_parameters(&self) -> Vec<f64> {
        self.global.parameters()
    }

    /// Evaluates the current global model on the held-out test set.
    pub fn evaluate_global(&self) -> fmore_ml::model::Evaluation {
        self.global.evaluate(&self.test_data, &self.test_indices)
    }

    /// Runs `rounds` federated rounds and returns the full history.
    ///
    /// # Errors
    ///
    /// Propagates auction failures from FMore selection.
    pub fn run(&mut self, rounds: usize) -> Result<TrainingHistory, FlError> {
        let mut history = TrainingHistory::default();
        for _ in 0..rounds {
            history.rounds.push(self.run_round()?);
        }
        Ok(history)
    }

    /// Runs a single federated round: refresh client availability, select participants,
    /// train locally, aggregate, evaluate.
    ///
    /// # Errors
    ///
    /// Propagates auction failures from FMore selection.
    pub fn run_round(&mut self) -> Result<RoundMetrics, FlError> {
        self.refresh_clients();
        let (winners, all_scores) = self.select_participants()?;
        self.run_round_with(winners, all_scores)
    }

    /// Re-draws every client's per-round data availability. Called automatically by
    /// [`FederatedTrainer::run_round`]; exposed for drivers (such as the MEC cluster
    /// simulator) that perform their own selection and use
    /// [`FederatedTrainer::run_round_with`].
    pub fn refresh_clients(&mut self) {
        for client in &mut self.clients {
            client.refresh_availability(self.config.availability, &self.train_data);
        }
    }

    /// Selects this round's participants according to the configured strategy, returning the
    /// winner descriptions and (for auctions) every computed score.
    fn select_participants(&mut self) -> Result<(Vec<WinnerInfo>, Vec<f64>), FlError> {
        let k = self.config.winners_per_round;
        match &self.strategy {
            SelectionStrategy::Random => {
                let selected = sample_indices(self.clients.len(), k, &mut self.rng);
                Ok((self.plain_winners(&selected), Vec::new()))
            }
            SelectionStrategy::Fixed(indices) => {
                let selected: Vec<usize> = indices.iter().copied().take(k).collect();
                Ok((self.plain_winners(&selected), Vec::new()))
            }
            SelectionStrategy::Auction(_) => {
                let auction = self.auction.as_ref().ok_or_else(|| {
                    FlError::InvalidConfig("auction strategy without an auction".into())
                })?;
                let max_data = self.config.partition.size_range.1 as f64;
                let num_classes = self.train_data.num_classes();
                let bids = engine::collect_adopted_bids(&self.clients, max_data, num_classes)?;
                let clients = &self.clients;
                let (winners, all_scores) =
                    engine::auction_select(auction, bids, &mut self.rng, |award| {
                        let client_idx = award.node.0 as usize;
                        let client = &clients[client_idx];
                        // The winner trains with its *declared* data size (q1 · max),
                        // never exceeding what it actually has available this round.
                        let declared =
                            (award.quality.get(0).unwrap_or(0.0) * max_data).round() as usize;
                        let data_size = declared.clamp(1, client.data_size().max(1));
                        WinnerInfo {
                            client: client_idx,
                            node: award.node,
                            data_size,
                            categories: client.categories(),
                            score: award.score,
                            payment: award.payment,
                        }
                    })?;
                Ok((winners, all_scores))
            }
        }
    }

    fn plain_winners(&self, selected: &[usize]) -> Vec<WinnerInfo> {
        selected
            .iter()
            .map(|&idx| {
                let client = &self.clients[idx];
                WinnerInfo {
                    client: idx,
                    node: client.id(),
                    data_size: client.data_size().max(1),
                    categories: client.categories(),
                    score: 0.0,
                    payment: 0.0,
                }
            })
            .collect()
    }

    /// Runs the task-assignment / local-training / global-aggregation steps for an externally
    /// determined winner set. The round's churn accounting is the trivial one: every winner
    /// completes.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::JobPanic`] if a local-training task panics; the trainer and its
    /// worker pool survive and the next round may run normally.
    pub fn run_round_with(
        &mut self,
        winners: Vec<WinnerInfo>,
        all_scores: Vec<f64>,
    ) -> Result<RoundMetrics, FlError> {
        let outcome = RoundOutcome::all_completed(winners.len());
        self.run_round_with_outcome(winners, all_scores, outcome)
    }

    /// Like [`FederatedTrainer::run_round_with`], but attaches a caller-supplied
    /// [`RoundOutcome`] — the entry point for drivers that select their own winners (the
    /// MEC cluster simulator, whose churn model may drop, delay, or replace winners before
    /// the surviving set reaches local training).
    ///
    /// `winners` must already be the post-deadline survivor set: only their updates are
    /// trained and aggregated.
    ///
    /// # Errors
    ///
    /// As for [`FederatedTrainer::run_round_with`].
    pub fn run_round_with_outcome(
        &mut self,
        winners: Vec<WinnerInfo>,
        all_scores: Vec<f64>,
        outcome: RoundOutcome,
    ) -> Result<RoundMetrics, FlError> {
        self.round += 1;
        let jobs = self.training_jobs(&winners);
        let results = engine::local_training(&self.engine, jobs)?;
        let mut updates = Vec::with_capacity(results.len());
        for (update, state) in results {
            self.slots[update.slot] = Some(state);
            updates.push(update);
        }
        engine::aggregate_with_rule(&FedAvg, &updates, &mut self.agg_scratch, &mut self.avg_buf)?;
        // The rule leaves `avg_buf` empty when it accepted nothing (e.g. an empty winner
        // set after total churn); the global model then simply carries over.
        if !self.avg_buf.is_empty() {
            self.global.set_parameters(&self.avg_buf);
        }
        // Hand each parameter buffer back to its slot so next round exports into it again.
        for update in updates {
            if let Some(state) = self.slots[update.slot].as_mut() {
                state.params = update.parameters;
            }
        }
        let eval =
            self.global
                .evaluate_in(&mut self.eval_arena, &self.test_data, &self.test_indices);
        Ok(RoundMetrics {
            round: self.round,
            accuracy: eval.accuracy,
            loss: eval.loss,
            winners,
            all_scores,
            outcome,
        })
    }

    /// Drops all per-slot reusable training state (models, arenas, buffers).
    ///
    /// Never changes results — the next round simply re-creates its slots from the global
    /// model, paying the warm-up allocations again. Exposed so tests can pin that slot reuse
    /// leaks no state between rounds, and for drivers that want to release memory between
    /// phases of a long experiment.
    pub fn clear_slot_state(&mut self) {
        self.slots.clear();
    }

    /// Prepares one self-contained [`TrainingJob`] per winner. This is the serial part of the
    /// local-training stage: drawing each winner's training subset through the client's own
    /// seeded RNG (in slot order, so the draw is deterministic) and snapshotting the global
    /// parameters once for all jobs to share. Each job carries its slot's reusable state
    /// (created on first use by cloning the global model); the jobs then run on the engine
    /// in any order.
    fn training_jobs(&mut self, winners: &[WinnerInfo]) -> Vec<TrainingJob> {
        // Refresh the shared parameter snapshot in place when no job from a previous round
        // still holds it (always true once a round has finished).
        match Arc::get_mut(&mut self.global_params) {
            Some(buf) => self.global.parameters_into(buf),
            None => self.global_params = Arc::new(self.global.parameters()),
        }
        if self.slots.len() < winners.len() {
            self.slots.resize_with(winners.len(), || None);
        }
        winners
            .iter()
            .enumerate()
            .map(|(slot, winner)| {
                let mut state = self.slots[slot]
                    .take()
                    .unwrap_or_else(|| SlotState::new(self.global.clone()));
                let client = &mut self.clients[winner.client];
                client.draw_training_subset_into(winner.data_size, &mut state.indices);
                TrainingJob {
                    slot,
                    client: winner.client,
                    state,
                    global_params: Arc::clone(&self.global_params),
                    data: Arc::clone(&self.train_data),
                    epochs: self.config.local_epochs,
                    learning_rate: self.config.learning_rate,
                    batch_size: self.config.batch_size,
                    seed: derive_seed(self.seed, (self.round as u64) << 32 | winner.client as u64),
                }
            })
            .collect()
    }

    /// Draws `n` fresh θ samples from the configured distribution (exposed for experiments
    /// that need to inspect the type population, e.g. the score-distribution analysis).
    pub fn sample_thetas(&mut self, n: usize) -> Vec<f64> {
        let (lo, hi) = self.config.theta_range;
        (0..n).map(|_| self.rng.gen_range(lo..hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::AuctionSelectionConfig;

    fn fast_config() -> FlConfig {
        FlConfig::fast_test(TaskKind::MnistO)
    }

    #[test]
    fn construction_validates_strategy_and_config() {
        assert!(FederatedTrainer::new(fast_config(), SelectionStrategy::random(), 1).is_ok());
        // Fixed selection referencing a missing client.
        let err = FederatedTrainer::new(fast_config(), SelectionStrategy::Fixed(vec![999]), 1)
            .unwrap_err();
        assert_eq!(err, FlError::UnknownClient(999));
        // Empty fixed selection.
        assert!(FederatedTrainer::new(fast_config(), SelectionStrategy::Fixed(vec![]), 1).is_err());
        // Invalid config propagates.
        let mut bad = fast_config();
        bad.winners_per_round = 0;
        assert!(FederatedTrainer::new(bad, SelectionStrategy::random(), 1).is_err());
    }

    #[test]
    fn randfl_round_selects_k_clients_without_payments() {
        let mut trainer =
            FederatedTrainer::new(fast_config(), SelectionStrategy::random(), 2).unwrap();
        let metrics = trainer.run_round().unwrap();
        assert_eq!(metrics.round, 1);
        assert_eq!(metrics.winners.len(), 4);
        assert!(metrics
            .winners
            .iter()
            .all(|w| w.payment == 0.0 && w.score == 0.0));
        assert!(metrics.all_scores.is_empty());
        assert!(metrics.accuracy >= 0.0 && metrics.accuracy <= 1.0);
        assert!(format!("{trainer:?}").contains("RandFL"));
    }

    #[test]
    fn fixfl_always_selects_the_same_clients() {
        let mut trainer =
            FederatedTrainer::new(fast_config(), SelectionStrategy::fixed_first(4), 3).unwrap();
        let first = trainer.run_round().unwrap();
        let second = trainer.run_round().unwrap();
        let ids = |m: &RoundMetrics| m.winners.iter().map(|w| w.client).collect::<Vec<_>>();
        assert_eq!(ids(&first), vec![0, 1, 2, 3]);
        assert_eq!(ids(&first), ids(&second));
    }

    #[test]
    fn fmore_round_produces_scores_and_payments() {
        let mut trainer =
            FederatedTrainer::new(fast_config(), SelectionStrategy::fmore(), 4).unwrap();
        let metrics = trainer.run_round().unwrap();
        assert_eq!(metrics.winners.len(), 4);
        assert_eq!(metrics.all_scores.len(), 12, "one score per bidding client");
        assert!(metrics.winners.iter().all(|w| w.payment > 0.0));
        // Winners have the best scores among all bids.
        let min_winner_score = metrics
            .winners
            .iter()
            .map(|w| w.score)
            .fold(f64::INFINITY, f64::min);
        let beaten = metrics
            .all_scores
            .iter()
            .filter(|&&s| s > min_winner_score + 1e-9)
            .count();
        assert!(
            beaten < metrics.winners.len(),
            "no more than K-1 bids may beat the worst winner"
        );
        // Winner data sizes never exceed what the client has.
        for w in &metrics.winners {
            assert!(w.data_size <= trainer.clients()[w.client].shard().size());
            assert!(w.data_size >= 1);
        }
    }

    #[test]
    fn training_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut t =
                FederatedTrainer::new(fast_config(), SelectionStrategy::fmore(), seed).unwrap();
            t.run(2).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let c = run(8);
        assert_ne!(a, c);
    }

    #[test]
    fn every_engine_mode_produces_the_same_history() {
        let run = |engine: RoundEngine| {
            let mut t = FederatedTrainer::with_engine(
                fast_config(),
                SelectionStrategy::fmore(),
                23,
                engine,
            )
            .unwrap();
            t.run(2).unwrap()
        };
        let inline = run(RoundEngine::inline());
        assert_eq!(inline, run(RoundEngine::pooled(1)));
        assert_eq!(inline, run(RoundEngine::pooled(4)));
        assert_eq!(inline, run(RoundEngine::default()));
    }

    #[test]
    fn accuracy_improves_over_a_few_rounds() {
        let mut config = fast_config();
        config.train_samples = 600;
        config.partition.size_range = (40, 80);
        let mut trainer = FederatedTrainer::new(config, SelectionStrategy::fmore(), 11).unwrap();
        let initial = trainer.evaluate_global().accuracy;
        let history = trainer.run(5).unwrap();
        assert!(
            history.final_accuracy() > initial + 0.15,
            "accuracy should improve: {initial} -> {}",
            history.final_accuracy()
        );
        assert_eq!(history.rounds.len(), 5);
        // Rounds are numbered consecutively from 1.
        let rounds: Vec<usize> = history.rounds.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn external_winner_injection_is_supported() {
        let mut trainer =
            FederatedTrainer::new(fast_config(), SelectionStrategy::random(), 13).unwrap();
        let winners = vec![WinnerInfo {
            client: 0,
            node: NodeId(0),
            data_size: 10,
            categories: 2,
            score: 1.5,
            payment: 0.4,
        }];
        let metrics = trainer.run_round_with(winners, vec![1.5, 0.3]).unwrap();
        assert_eq!(metrics.round, 1);
        assert_eq!(metrics.winners.len(), 1);
        assert_eq!(metrics.all_scores, vec![1.5, 0.3]);
    }

    #[test]
    fn psi_fmore_strategy_runs() {
        let strategy = SelectionStrategy::Auction(AuctionSelectionConfig {
            selection: fmore_auction::SelectionRule::PsiFMore { psi: 0.5 },
            ..AuctionSelectionConfig::default()
        });
        let mut trainer = FederatedTrainer::new(fast_config(), strategy, 17).unwrap();
        let metrics = trainer.run_round().unwrap();
        assert_eq!(metrics.winners.len(), 4);
    }

    #[test]
    fn sampled_thetas_stay_in_range() {
        let mut trainer =
            FederatedTrainer::new(fast_config(), SelectionStrategy::random(), 19).unwrap();
        let thetas = trainer.sample_thetas(50);
        assert_eq!(thetas.len(), 50);
        assert!(thetas.iter().all(|t| (0.1..1.0).contains(t)));
        // Client thetas were drawn from the same range.
        assert!(trainer
            .clients()
            .iter()
            .all(|c| (0.1..1.0).contains(&c.theta())));
    }
}
