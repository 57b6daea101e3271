//! The simulated 32-machine deployment: per-round three-dimensional auction, federated
//! training, and wall-clock accounting.
//!
//! The cluster is a thin driver over the shared round engine of [`fmore_fl::engine`]: every
//! node solves its [`fmore_auction::EquilibriumStrategy`] once, when the cluster is built,
//! and each round's bid is that strategy capped to the resources the node offers
//! ([`fmore_auction::EquilibriumStrategy::cap`]); winner determination goes through the same batched
//! [`fmore_fl::engine::auction_select`] stage the federated trainer uses, and local training
//! runs on the engine's worker pool inside the embedded [`FederatedTrainer`]. The only
//! cluster-specific parts left are the three-dimensional resource model and the wall-clock
//! accounting.

use crate::dynamics::{ChurnModel, ChurnState, DynamicsConfig, ParticipantFate};
use crate::error::MecError;
use crate::ledger::PaymentLedger;
use crate::node::{MecNode, ResourceRanges};
use crate::time_model::TimeModel;
use fmore_auction::{
    Additive, Auction, EquilibriumSolver, LinearCost, NodeId, PricingRule, ScoringRule,
    SelectionRule,
};
use fmore_fl::config::{FlConfig, ModelChoice};
use fmore_fl::engine::{self, apply_deadline, AuctionStage, ParticipantTiming, RoundEngine};
use fmore_fl::metrics::{RoundMetrics, RoundOutcome, WinnerInfo};
use fmore_fl::selection::SelectionStrategy;
use fmore_fl::trainer::FederatedTrainer;
use fmore_ml::dataset::TaskKind;
use fmore_ml::partition::PartitionConfig;
use fmore_numerics::rng::{derive_seed, sample_indices};
use fmore_numerics::{seeded_rng, Distribution1D, UniformDist};
use rand::rngs::StdRng;

/// Which scheme the cluster runs (Fig. 12–13 compare FMore against RandFL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterStrategy {
    /// FMore: three-dimensional auction per round, first-price payment.
    FMore,
    /// RandFL: uniform random selection, no payments.
    RandFL,
}

impl ClusterStrategy {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterStrategy::FMore => "FMore",
            ClusterStrategy::RandFL => "RandFL",
        }
    }
}

/// Configuration of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of edge nodes (the paper uses 31 plus one aggregator).
    pub nodes: usize,
    /// Winners per round `K`.
    pub winners_per_round: usize,
    /// Federated-learning configuration driving the actual training.
    pub fl: FlConfig,
    /// Per-node resource ranges.
    pub resources: ResourceRanges,
    /// Additive scoring weights over (computing power, bandwidth, data size); the paper uses
    /// `(0.4, 0.3, 0.3)`.
    pub scoring_weights: Vec<f64>,
    /// Linear private-cost coefficients over the same three resources.
    pub cost_coefficients: Vec<f64>,
    /// Wall-clock time model.
    pub time_model: TimeModel,
    /// Churn + deadline dynamics; `None` means every node stays and every winner finishes.
    pub dynamics: Option<DynamicsConfig>,
}

impl ClusterConfig {
    /// The paper's deployment: 31 nodes, CIFAR-10 task, additive scoring `(0.4, 0.3, 0.3)`.
    pub fn paper_cluster() -> Self {
        let mut fl = FlConfig::paper_simulation(TaskKind::Cifar10);
        fl.clients = 31;
        fl.winners_per_round = 10;
        fl.partition = PartitionConfig {
            clients: 31,
            size_range: (100, 600),
            category_range: (2, 10),
        };
        fl.train_samples = 8_000;
        fl.test_samples = 1_000;
        Self {
            nodes: 31,
            winners_per_round: 10,
            fl,
            resources: ResourceRanges::paper_cluster(),
            scoring_weights: vec![0.4, 0.3, 0.3],
            cost_coefficients: vec![0.3, 0.3, 0.4],
            time_model: TimeModel::paper_cluster(),
            dynamics: None,
        }
    }

    /// A small configuration for tests and doc examples.
    pub fn fast_test() -> Self {
        let mut fl = FlConfig::fast_test(TaskKind::MnistO);
        fl.clients = 8;
        fl.winners_per_round = 3;
        fl.partition = PartitionConfig {
            clients: 8,
            size_range: (20, 60),
            category_range: (2, 10),
        };
        Self {
            nodes: 8,
            winners_per_round: 3,
            fl,
            resources: ResourceRanges::paper_cluster(),
            scoring_weights: vec![0.4, 0.3, 0.3],
            cost_coefficients: vec![0.3, 0.3, 0.4],
            time_model: TimeModel::paper_cluster(),
            dynamics: None,
        }
    }

    /// Returns the configuration with the churn/deadline dynamics of [`crate::dynamics`]
    /// attached.
    pub fn with_dynamics(mut self, dynamics: DynamicsConfig) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), MecError> {
        if self.nodes == 0 {
            return Err(MecError::InvalidConfig("nodes must be positive".into()));
        }
        if self.winners_per_round == 0 || self.winners_per_round > self.nodes {
            return Err(MecError::InvalidConfig(format!(
                "winners_per_round {} must be in 1..={}",
                self.winners_per_round, self.nodes
            )));
        }
        if self.fl.clients != self.nodes {
            return Err(MecError::InvalidConfig(format!(
                "fl.clients {} must equal nodes {}",
                self.fl.clients, self.nodes
            )));
        }
        if self.scoring_weights.len() != 3 || self.cost_coefficients.len() != 3 {
            return Err(MecError::InvalidConfig(
                "cluster scoring and cost are defined over exactly three resources".into(),
            ));
        }
        if !self.resources.is_valid() {
            return Err(MecError::InvalidConfig("invalid resource ranges".into()));
        }
        if let Some(dynamics) = &self.dynamics {
            dynamics.validate()?;
        }
        self.fl.validate()?;
        Ok(())
    }
}

/// Metrics of one cluster round: the learning metrics plus simulated wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRound {
    /// Learning metrics (accuracy, loss, winners, payments).
    pub learning: RoundMetrics,
    /// Duration of this round in simulated seconds.
    pub round_secs: f64,
    /// Cumulative training time up to and including this round.
    pub cumulative_secs: f64,
}

/// The full history of a cluster run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterHistory {
    /// Per-round records in order.
    pub rounds: Vec<ClusterRound>,
}

impl ClusterHistory {
    /// Total simulated training time.
    pub fn total_time_secs(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.cumulative_secs)
    }

    /// Accuracy after every round.
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.learning.accuracy).collect()
    }

    /// Loss after every round.
    pub fn loss_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.learning.loss).collect()
    }

    /// Cumulative time after every round.
    pub fn cumulative_time_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.cumulative_secs).collect()
    }

    /// Accuracy after the final round.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.learning.accuracy)
    }

    /// Simulated time needed to first reach `target` accuracy, if ever reached
    /// (the time-to-accuracy metric of Fig. 13 right).
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.learning.accuracy >= target)
            .map(|r| r.cumulative_secs)
    }

    /// Element-wise run totals of the per-round churn accounting (all zeros for static
    /// runs).
    pub fn churn_totals(&self) -> RoundOutcome {
        RoundOutcome::accumulate(self.rounds.iter().map(|r| &r.learning.outcome))
    }

    /// Total mid-round dropouts over the run (0 for static runs).
    pub fn total_dropouts(&self) -> usize {
        self.churn_totals().dropouts
    }

    /// Total straggler events over the run.
    pub fn total_stragglers(&self) -> usize {
        self.churn_totals().stragglers
    }

    /// Total deadline misses over the run.
    pub fn total_deadline_misses(&self) -> usize {
        self.churn_totals().deadline_misses
    }

    /// Total re-auction waves over the run.
    pub fn total_reauction_waves(&self) -> usize {
        self.churn_totals().reauction_waves
    }

    /// Total winners recruited by re-auction over the run.
    pub fn total_replacements(&self) -> usize {
        self.churn_totals().replacements
    }

    /// Total payment promised for updates that never aggregated.
    pub fn total_wasted_payment(&self) -> f64 {
        self.churn_totals().wasted_payment
    }

    /// Mean per-round completion rate (1.0 for static runs and empty histories).
    pub fn mean_completion_rate(&self) -> f64 {
        RoundOutcome::mean_completion_rate(self.rounds.iter().map(|r| &r.learning.outcome))
    }
}

/// The simulated MEC deployment.
pub struct MecCluster {
    config: ClusterConfig,
    strategy: ClusterStrategy,
    nodes: Vec<MecNode>,
    trainer: FederatedTrainer,
    auction: Option<Auction>,
    ledger: PaymentLedger,
    churn: Option<ChurnState>,
    rng: StdRng,
    elapsed_secs: f64,
}

impl std::fmt::Debug for MecCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MecCluster")
            .field("strategy", &self.strategy.name())
            .field("nodes", &self.nodes.len())
            .field("winners_per_round", &self.config.winners_per_round)
            .field("elapsed_secs", &self.elapsed_secs)
            .finish()
    }
}

impl MecCluster {
    /// Builds the cluster: creates the nodes with random resource ranges and private costs,
    /// the embedded federated trainer, and (for FMore) the three-dimensional auction.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] for inconsistent configurations and propagates
    /// construction failures of the trainer or the auction components.
    pub fn new(
        config: ClusterConfig,
        strategy: ClusterStrategy,
        seed: u64,
    ) -> Result<Self, MecError> {
        Self::with_engine(config, strategy, seed, RoundEngine::default())
    }

    /// Builds the cluster with a caller-supplied round engine (shared pool, private pool, or
    /// inline); the engine drives the embedded trainer's parallel local training. The engine
    /// choice never affects results.
    ///
    /// # Errors
    ///
    /// As for [`MecCluster::new`].
    pub fn with_engine(
        config: ClusterConfig,
        strategy: ClusterStrategy,
        seed: u64,
        round_engine: RoundEngine,
    ) -> Result<Self, MecError> {
        config.validate()?;
        let mut rng = seeded_rng(seed);
        let theta_dist = UniformDist::new(config.fl.theta_range.0, config.fl.theta_range.1)
            .map_err(fmore_auction::AuctionError::from)?;
        let mut nodes: Vec<MecNode> = (0..config.nodes)
            .map(|i| {
                let theta = theta_dist.sample(&mut rng);
                MecNode::new(
                    NodeId(i as u64),
                    config.resources,
                    theta,
                    derive_seed(seed, 0x1000 + i as u64),
                )
            })
            .collect();

        // The trainer is always constructed with a pass-through strategy; the cluster drives
        // selection itself and injects the winners via `run_round_with`.
        let mut fl_config = config.fl.clone();
        if matches!(fl_config.model, ModelChoice::PaperModel) && fl_config.train_samples > 50_000 {
            fl_config.model = ModelChoice::FastSurrogate;
        }
        let trainer = FederatedTrainer::with_engine(
            fl_config,
            SelectionStrategy::random(),
            derive_seed(seed, 0x2000),
            round_engine,
        )?;

        let auction = match strategy {
            ClusterStrategy::FMore => {
                let scoring = Additive::new(config.scoring_weights.clone())?;
                let cost = LinearCost::new(config.cost_coefficients.clone())?;
                let solver = EquilibriumSolver::builder()
                    .scoring(scoring.clone())
                    .cost(cost)
                    .theta(theta_dist)
                    .bounds(vec![(0.0, 1.0); 3])
                    .population(config.nodes)
                    .winners(config.winners_per_round)
                    .grid_size(128)
                    .build()?;
                // The broadcast of Algorithm 1 step 1: every node — present now or
                // re-arriving under churn later — solves its strategy from its own θ
                // here, once; rounds only cap it, so the solver is not kept.
                for node in &mut nodes {
                    node.adopt_strategy(&solver)?;
                }
                Some(Auction::new(
                    ScoringRule::new(scoring),
                    config.winners_per_round,
                    SelectionRule::TopK,
                    PricingRule::FirstPrice,
                ))
            }
            ClusterStrategy::RandFL => None,
        };

        // The churn stream is seeded independently of the node, trainer, and auction RNGs,
        // so attaching a zero-probability churn model perturbs nothing else.
        let churn = config
            .dynamics
            .as_ref()
            .map(|_| ChurnState::new(config.nodes, derive_seed(seed, 0x3000)));

        Ok(Self {
            config,
            strategy,
            nodes,
            trainer,
            auction,
            ledger: PaymentLedger::new(),
            churn,
            rng,
            elapsed_secs: 0.0,
        })
    }

    /// The churn state, if dynamics are enabled.
    pub fn churn(&self) -> Option<&ChurnState> {
        self.churn.as_ref()
    }

    /// The payment ledger accumulated so far.
    pub fn ledger(&self) -> &PaymentLedger {
        &self.ledger
    }

    /// The strategy the cluster runs.
    pub fn strategy(&self) -> ClusterStrategy {
        self.strategy
    }

    /// Total simulated time elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Runs `rounds` cluster rounds.
    ///
    /// # Errors
    ///
    /// Propagates auction and training failures.
    pub fn run(&mut self, rounds: usize) -> Result<ClusterHistory, MecError> {
        let mut history = ClusterHistory::default();
        for _ in 0..rounds {
            history.rounds.push(self.run_round()?);
        }
        Ok(history)
    }

    /// Stage 1–2 of a round: winner determination over the `eligible` node indices — an
    /// FMore auction over their capacity-capped equilibrium bids (keeping the ranked
    /// population as the round's standing pool) or a uniform RandFL draw.
    fn select_winners(&mut self, eligible: &[usize]) -> Result<AuctionStage, MecError> {
        let maxima = self.config.resources.maxima();
        let quota = self.config.winners_per_round.min(eligible.len());
        if quota == 0 {
            return Ok(AuctionStage::default());
        }
        match self.strategy {
            ClusterStrategy::FMore => {
                // Bid collection: each eligible node's adopted strategy capped to its
                // resources this round, then the shared batched auction stage — the same
                // pipeline the trainer runs, with the cluster's own award-to-winner
                // mapping plugged in.
                let auction = self
                    .auction
                    .as_ref()
                    .expect("FMore cluster always has an auction");
                let mut bids = Vec::with_capacity(eligible.len());
                for &idx in eligible {
                    bids.push(self.nodes[idx].make_bid(&maxima)?);
                }
                let nodes = &self.nodes;
                let clients = self.trainer.clients();
                let stage =
                    engine::auction_select_standing(auction, bids, &mut self.rng, |award| {
                        winner_from_award(
                            nodes,
                            clients,
                            maxima.data_size,
                            award.node,
                            award.score,
                            award.payment,
                        )
                    })?;
                Ok(stage)
            }
            ClusterStrategy::RandFL => {
                let picked = sample_indices(eligible.len(), quota, &mut self.rng);
                let winners: Vec<WinnerInfo> = picked
                    .into_iter()
                    .map(|i| {
                        winner_from_award(
                            &self.nodes,
                            self.trainer.clients(),
                            maxima.data_size,
                            NodeId(eligible[i] as u64),
                            0.0,
                            0.0,
                        )
                    })
                    .collect();
                Ok(AuctionStage {
                    winners,
                    ..AuctionStage::default()
                })
            }
        }
    }

    /// Runs one cluster round (see [`crate::dynamics`] for the churn semantics):
    ///
    /// 1. membership churn (departures/arrivals), then resource refresh and bid collection
    ///    from the **present** nodes only;
    /// 2. winner determination (auction or random) with the ranked population kept as the
    ///    round's standing bid pool;
    /// 3. per-winner fate draws (dropout, straggler, resource jitter) and the deadline gate
    ///    of [`fmore_fl::engine::apply_deadline`];
    /// 4. re-auction waves from the standing pool while the surviving set is under quota;
    /// 5. training and aggregation of the survivors, with the full [`RoundOutcome`]
    ///    accounting attached.
    ///
    /// Without [`ClusterConfig::dynamics`] the same loop runs with every node present, a
    /// neutral fate for every winner ([`ParticipantFate::NEUTRAL`]), no deadline and no
    /// re-auction budget: every winner finishes, and the round lasts as long as the slowest
    /// winner plus the aggregation overhead ([`TimeModel::round_secs`]).
    ///
    /// Every draw happens on the control thread in node/slot order, so the result is
    /// bit-identical across execution engines and pool sizes.
    ///
    /// # Errors
    ///
    /// Propagates auction and training failures.
    pub fn run_round(&mut self) -> Result<ClusterRound, MecError> {
        // Without dynamics: no deadline, no re-auction budget, and a churn model nothing
        // draws from (such a cluster has no churn state).
        let dynamics = self.config.dynamics.unwrap_or(DynamicsConfig {
            churn: ChurnModel::stable(),
            deadline_secs: f64::INFINITY,
            max_reauction_waves: 0,
        });
        for node in &mut self.nodes {
            node.refresh();
        }
        self.trainer.refresh_clients();
        if let Some(churn) = &mut self.churn {
            churn.begin_round(&dynamics.churn);
        }
        let present = self.present_nodes();

        let maxima = self.config.resources.maxima();
        let quota = self.config.winners_per_round.min(present.len());
        let mut outcome = RoundOutcome::default();
        let mut round_secs = 0.0;

        // Stage 1-2: selection over the present population, keeping the ranked pool.
        let AuctionStage {
            winners: mut wave_winners,
            all_scores,
            standing,
        } = self.select_winners(&present)?;

        // Stages 3-4: fate draws, deadline gate, re-auction waves.
        let mut assigned: Vec<NodeId> = wave_winners.iter().map(|w| w.node).collect();
        let mut survivors: Vec<WinnerInfo> = Vec::new();
        while !wave_winners.is_empty() {
            outcome.selected += wave_winners.len();
            let timings: Vec<ParticipantTiming> = wave_winners
                .iter()
                .enumerate()
                .map(|(slot, w)| {
                    let fate = match &mut self.churn {
                        Some(churn) => churn.draw_fate(&dynamics.churn),
                        None => ParticipantFate::NEUTRAL,
                    };
                    let node = &self.nodes[w.client];
                    let mut profile = node.current();
                    profile.cpu_cores = (profile.cpu_cores * fate.resource_factor).max(0.25);
                    profile.bandwidth_mbps *= fate.resource_factor;
                    let mut secs = self.config.time_model.node_round_secs(
                        &profile,
                        node.current().data_size,
                        self.config.fl.local_epochs,
                    );
                    if fate.straggler {
                        outcome.stragglers += 1;
                        secs *= dynamics.churn.straggler_slowdown;
                    }
                    if let (true, Some(churn)) = (fate.dropped_out, &mut self.churn) {
                        churn.mark_departed(w.client);
                    }
                    ParticipantTiming {
                        slot,
                        completion_secs: if fate.dropped_out {
                            f64::INFINITY
                        } else {
                            secs
                        },
                        straggler: fate.straggler,
                        dropped_out: fate.dropped_out,
                    }
                })
                .collect();

            let verdict = apply_deadline(&timings, dynamics.deadline_secs);
            round_secs += verdict.wave_secs;
            outcome.dropouts += verdict.dropouts.len();
            outcome.deadline_misses += verdict.missed.len();
            // Late deliveries are paid for discarded work; dropouts forfeit payment.
            for &slot in &verdict.missed {
                outcome.wasted_payment += wave_winners[slot].payment;
            }
            self.ledger
                .record_round(
                    verdict
                        .missed
                        .iter()
                        .chain(verdict.survivors.iter())
                        .map(|&slot| {
                            let w = &wave_winners[slot];
                            (w.node, w.payment)
                        }),
                );
            survivors.extend(verdict.survivors.iter().map(|&s| wave_winners[s].clone()));

            if survivors.len() >= quota || outcome.reauction_waves >= dynamics.max_reauction_waves {
                break;
            }
            let need = quota - survivors.len();
            let replacements: Vec<WinnerInfo> = match self.strategy {
                ClusterStrategy::FMore => {
                    let auction = self
                        .auction
                        .as_ref()
                        .expect("FMore cluster always has an auction");
                    let awards = auction.reauction(&standing, &assigned, need, &mut self.rng);
                    let nodes = &self.nodes;
                    let clients = self.trainer.clients();
                    awards
                        .iter()
                        .map(|award| {
                            winner_from_award(
                                nodes,
                                clients,
                                maxima.data_size,
                                award.node,
                                award.score,
                                award.payment,
                            )
                        })
                        .collect()
                }
                ClusterStrategy::RandFL => {
                    let candidates: Vec<usize> = self
                        .present_nodes()
                        .into_iter()
                        .filter(|&i| !assigned.contains(&NodeId(i as u64)))
                        .collect();
                    let picked = sample_indices(candidates.len(), need, &mut self.rng);
                    picked
                        .into_iter()
                        .map(|i| {
                            winner_from_award(
                                &self.nodes,
                                self.trainer.clients(),
                                maxima.data_size,
                                NodeId(candidates[i] as u64),
                                0.0,
                                0.0,
                            )
                        })
                        .collect()
                }
            };
            if replacements.is_empty() {
                break;
            }
            outcome.reauction_waves += 1;
            outcome.replacements += replacements.len();
            assigned.extend(replacements.iter().map(|w| w.node));
            wave_winners = replacements;
        }
        outcome.completed = survivors.len();

        round_secs += self.config.time_model.aggregation_overhead_secs;
        self.elapsed_secs += round_secs;

        // Stage 5: the surviving updates train and aggregate.
        let learning = self
            .trainer
            .run_round_with_outcome(survivors, all_scores, outcome)?;
        Ok(ClusterRound {
            learning,
            round_secs,
            cumulative_secs: self.elapsed_secs,
        })
    }

    /// Indices of the nodes present this round, in node order: every node unless churn
    /// dynamics are attached.
    fn present_nodes(&self) -> Vec<usize> {
        match &self.churn {
            Some(churn) => churn.present_indices(),
            None => (0..self.nodes.len()).collect(),
        }
    }
}

/// Maps an auction award (or a random pick) onto the federated trainer's client list: the
/// node trains on a fraction of its data shard proportional to the data resource it offered
/// this round.
fn winner_from_award(
    nodes: &[MecNode],
    clients: &[fmore_fl::EdgeClient],
    max_data_size: f64,
    node_id: NodeId,
    score: f64,
    payment: f64,
) -> WinnerInfo {
    let idx = node_id.0 as usize;
    let node = &nodes[idx];
    let client = &clients[idx];
    let fraction = (node.current().data_size / max_data_size).clamp(0.05, 1.0);
    let data_size = ((client.data_size() as f64) * fraction).round().max(1.0) as usize;
    WinnerInfo {
        client: idx,
        node: node_id,
        data_size: data_size.min(client.data_size().max(1)),
        categories: client.categories(),
        score,
        payment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_auction::{CountingScoring, ScoringFunction};
    use std::sync::Arc;

    #[test]
    fn config_validation_catches_mistakes() {
        assert!(ClusterConfig::paper_cluster().validate().is_ok());
        assert!(ClusterConfig::fast_test().validate().is_ok());

        let mut c = ClusterConfig::fast_test();
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::fast_test();
        c.winners_per_round = 100;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::fast_test();
        c.fl.clients = 3;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::fast_test();
        c.scoring_weights = vec![0.5, 0.5];
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::fast_test();
        c.resources.cpu_cores = (0.0, 4.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn paper_cluster_matches_section_v_c() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.nodes, 31);
        assert_eq!(c.scoring_weights, vec![0.4, 0.3, 0.3]);
        assert_eq!(c.fl.task, TaskKind::Cifar10);
        assert_eq!(c.resources.data_size, (2000.0, 10_000.0));
    }

    #[test]
    fn fmore_cluster_round_selects_pays_and_times() {
        let mut cluster =
            MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::FMore, 1).unwrap();
        let round = cluster.run_round().unwrap();
        assert_eq!(round.learning.winners.len(), 3);
        assert!(round.learning.winners.iter().all(|w| w.payment > 0.0));
        assert_eq!(round.learning.all_scores.len(), 8);
        assert!(round.round_secs > 0.0);
        assert_eq!(round.cumulative_secs, round.round_secs);
        assert_eq!(cluster.ledger().distinct_winners(), 3);
        assert!(format!("{cluster:?}").contains("FMore"));
    }

    #[test]
    fn randfl_cluster_round_has_no_payments() {
        let mut cluster =
            MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::RandFL, 2).unwrap();
        let round = cluster.run_round().unwrap();
        assert_eq!(round.learning.winners.len(), 3);
        assert!(round.learning.winners.iter().all(|w| w.payment == 0.0));
        assert!(round.learning.all_scores.is_empty());
        assert_eq!(cluster.ledger().total(), 0.0);
        assert_eq!(cluster.strategy(), ClusterStrategy::RandFL);
    }

    #[test]
    fn history_accumulates_time_and_accuracy() {
        let mut cluster =
            MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::FMore, 3).unwrap();
        let history = cluster.run(3).unwrap();
        assert_eq!(history.rounds.len(), 3);
        let times = history.cumulative_time_series();
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "cumulative time must increase"
        );
        assert_eq!(history.total_time_secs(), *times.last().unwrap());
        assert_eq!(history.accuracy_series().len(), 3);
        assert_eq!(history.loss_series().len(), 3);
        assert!(history.final_accuracy() >= 0.0);
        assert_eq!(cluster.elapsed_secs(), history.total_time_secs());
        // Time-to-accuracy of an unreachable target is None.
        assert!(history.time_to_accuracy(2.0).is_none());
        assert_eq!(
            history.time_to_accuracy(0.0),
            Some(history.rounds[0].cumulative_secs)
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut c =
                MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::FMore, seed).unwrap();
            c.run(2).unwrap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fmore_winners_have_top_scores() {
        let mut cluster =
            MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::FMore, 4).unwrap();
        let round = cluster.run_round().unwrap();
        let min_winner = round
            .learning
            .winners
            .iter()
            .map(|w| w.score)
            .fold(f64::INFINITY, f64::min);
        let beaten = round
            .learning
            .all_scores
            .iter()
            .filter(|&&s| s > min_winner + 1e-9)
            .count();
        assert!(beaten < round.learning.winners.len());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ClusterStrategy::FMore.name(), "FMore");
        assert_eq!(ClusterStrategy::RandFL.name(), "RandFL");
    }

    use crate::dynamics::ChurnModel;

    #[test]
    fn no_dynamics_runs_like_stable_dynamics_with_a_generous_deadline() {
        // A cluster without dynamics and one with a zero-probability churn model and an
        // unmissable deadline run the one round loop alike: same auction draws, same
        // winners, same times, same history.
        for strategy in [ClusterStrategy::FMore, ClusterStrategy::RandFL] {
            let static_run = {
                let mut c = MecCluster::new(ClusterConfig::fast_test(), strategy, 7).unwrap();
                c.run(3).unwrap()
            };
            let dynamic_run = {
                let config = ClusterConfig::fast_test()
                    .with_dynamics(DynamicsConfig::new(ChurnModel::stable()).with_deadline(1e9));
                let mut c = MecCluster::new(config, strategy, 7).unwrap();
                c.run(3).unwrap()
            };
            assert_eq!(
                static_run,
                dynamic_run,
                "{}: stable dynamics must reproduce the history without dynamics",
                strategy.name()
            );
        }
    }

    #[test]
    fn certain_dropouts_forfeit_payment_and_empty_the_round() {
        let config = ClusterConfig::fast_test().with_dynamics(
            DynamicsConfig::new(ChurnModel::stable().with_dropout(1.0))
                .with_deadline(1e9)
                .with_reauction_waves(2),
        );
        let mut cluster = MecCluster::new(config, ClusterStrategy::FMore, 5).unwrap();
        let round = cluster.run_round().unwrap();
        let outcome = &round.learning.outcome;
        assert_eq!(outcome.completed, 0);
        assert_eq!(outcome.dropouts, outcome.selected);
        assert!(outcome.selected >= 3, "re-auction waves kept recruiting");
        assert!(outcome.reauction_waves >= 1);
        assert_eq!(outcome.replacements, outcome.selected - 3);
        // Dropouts forfeit payment: nothing disbursed, nothing wasted.
        assert_eq!(outcome.wasted_payment, 0.0);
        assert_eq!(cluster.ledger().total(), 0.0);
        assert!(round.learning.winners.is_empty());
        // Each failed wave costs the full deadline window.
        assert!(round.round_secs >= 1e9);
    }

    #[test]
    fn certain_stragglers_missing_the_deadline_waste_their_payments() {
        let config = ClusterConfig::fast_test().with_dynamics(
            DynamicsConfig::new(ChurnModel::stable().with_stragglers(1.0, 1e9))
                .with_deadline(30.0)
                .with_reauction_waves(1),
        );
        let mut cluster = MecCluster::new(config, ClusterStrategy::FMore, 5).unwrap();
        let round = cluster.run_round().unwrap();
        let outcome = &round.learning.outcome;
        assert_eq!(outcome.completed, 0);
        assert_eq!(outcome.stragglers, outcome.selected);
        assert_eq!(outcome.deadline_misses, outcome.selected);
        // Late work is paid for and wasted — the ledger and the waste account agree.
        assert!(outcome.wasted_payment > 0.0);
        assert!((cluster.ledger().total() - outcome.wasted_payment).abs() < 1e-9);
        assert_eq!(round.learning.winners.len(), 0);
    }

    #[test]
    fn dynamic_histories_expose_churn_accounting() {
        let config = ClusterConfig::fast_test().with_dynamics(
            DynamicsConfig::new(ChurnModel::edge_default().with_dropout(0.5)).with_deadline(120.0),
        );
        let mut cluster = MecCluster::new(config, ClusterStrategy::FMore, 9).unwrap();
        let history = cluster.run(4).unwrap();
        assert_eq!(history.rounds.len(), 4);
        assert!(
            history.total_dropouts() > 0,
            "dropout rate 0.5 over 4 rounds"
        );
        assert!(history.mean_completion_rate() < 1.0);
        assert!(history.mean_completion_rate() >= 0.0);
        let totals = [
            history.total_stragglers(),
            history.total_deadline_misses(),
            history.total_reauction_waves(),
            history.total_replacements(),
        ];
        assert!(totals.iter().all(|&t| t < 1000));
        assert!(history.total_wasted_payment() >= 0.0);
        assert!(cluster.churn().is_some());
        // Static clusters report trivial accounting.
        let mut static_cluster =
            MecCluster::new(ClusterConfig::fast_test(), ClusterStrategy::FMore, 9).unwrap();
        let static_history = static_cluster.run(2).unwrap();
        assert_eq!(static_history.total_dropouts(), 0);
        assert_eq!(static_history.mean_completion_rate(), 1.0);
        assert!(static_cluster.churn().is_none());
    }

    #[test]
    fn dynamic_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let config = ClusterConfig::fast_test()
                .with_dynamics(DynamicsConfig::new(ChurnModel::edge_default()).with_deadline(90.0));
            let mut c = MecCluster::new(config, ClusterStrategy::FMore, seed).unwrap();
            c.run(3).unwrap()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    /// The game an FMore cluster broadcasts for `config`, with `scoring` as its rule.
    fn broadcast_solver(
        config: &ClusterConfig,
        scoring: impl ScoringFunction + 'static,
    ) -> EquilibriumSolver {
        let (lo, hi) = config.fl.theta_range;
        EquilibriumSolver::builder()
            .scoring(scoring)
            .cost(LinearCost::new(config.cost_coefficients.clone()).unwrap())
            .theta(UniformDist::new(lo, hi).unwrap())
            .bounds(vec![(0.0, 1.0); 3])
            .population(config.nodes)
            .winners(config.winners_per_round)
            .grid_size(128)
            .build()
            .unwrap()
    }

    #[test]
    fn winner_selection_never_evaluates_a_solver_after_adoption() {
        let config = ClusterConfig::fast_test();
        let reference = MecCluster::new(config.clone(), ClusterStrategy::FMore, 13)
            .unwrap()
            .run(3)
            .unwrap();
        // The same cluster, its nodes re-briefed by an identical rule that counts.
        let mut cluster = MecCluster::new(config.clone(), ClusterStrategy::FMore, 13).unwrap();
        let scoring = Arc::new(CountingScoring::new(
            Additive::new(config.scoring_weights.clone()).unwrap(),
        ));
        let solver = broadcast_solver(&config, Arc::clone(&scoring));
        for node in &mut cluster.nodes {
            node.adopt_strategy(&solver).unwrap();
        }
        let adopted = scoring.evaluations();
        assert!(adopted > 0, "adoption is where the solving happens");
        assert_eq!(cluster.run(3).unwrap(), reference);
        assert_eq!(
            scoring.evaluations(),
            adopted,
            "rounds must not touch the solver"
        );
    }

    #[test]
    fn nodes_arriving_under_churn_bid_from_their_own_strategy() {
        let model = ChurnModel::stable().with_membership(0.5, 0.5);
        let config =
            ClusterConfig::fast_test().with_dynamics(DynamicsConfig::new(model).with_deadline(1e9));
        let solver = broadcast_solver(
            &config,
            Additive::new(config.scoring_weights.clone()).unwrap(),
        );
        let maxima = config.resources.maxima();
        let mut cluster = MecCluster::new(config, ClusterStrategy::FMore, 17).unwrap();
        let (mut arrivals, mut departures) = (0, 0);
        for _ in 0..12 {
            for node in &mut cluster.nodes {
                node.refresh();
            }
            let churn = cluster.churn.as_mut().unwrap();
            let change = churn.begin_round(&model);
            let present = churn.present_indices();
            departures += change.departed.len();
            let stage = cluster.select_winners(&present).unwrap();
            assert_eq!(stage.standing.len(), present.len());
            for &idx in &change.arrived {
                arrivals += 1;
                let node = &cluster.nodes[idx];
                let capacity = node.quality(&maxima);
                let expected = solver
                    .capped_bid(node.id(), node.theta(), capacity.as_slice())
                    .unwrap();
                let bid = stage
                    .standing
                    .iter()
                    .find(|b| b.node == node.id())
                    .expect("an arrived node bids in the round it rejoins");
                assert_eq!(bid.ask.to_bits(), expected.ask.to_bits());
                assert_eq!(bid.quality, expected.quality);
            }
        }
        assert!(
            arrivals > 0 && departures > 0,
            "the run must actually churn"
        );
    }

    #[test]
    fn invalid_dynamics_are_rejected_at_construction() {
        let config = ClusterConfig::fast_test()
            .with_dynamics(DynamicsConfig::new(ChurnModel::stable()).with_deadline(-1.0));
        assert!(MecCluster::new(config, ClusterStrategy::FMore, 1).is_err());
        let mut bad_churn = ChurnModel::stable();
        bad_churn.dropout_prob = 2.0;
        let config = ClusterConfig::fast_test().with_dynamics(DynamicsConfig::new(bad_churn));
        assert!(config.validate().is_err());
    }
}
