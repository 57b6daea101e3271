//! Figures 9–11: the impact of the population `N`, the winner count `K` and the ψ-FMore
//! admission probability ψ — one sweep over one [`Axis`].
//!
//! * Panel (a) of each figure — rounds needed to reach accuracy targets at the two ends of
//!   a compared pair (more nodes, more winners, or a larger ψ train faster).
//! * Fig. 9b / 10b — the realised mean winner payment and score as `N` or `K` varies: more
//!   competition lowers payments and raises scores (Theorem 2), more winners the reverse
//!   (Theorem 3). Every trial draws a fresh population of the paper's simulator game, bids
//!   through held equilibrium strategies ([`fmore_auction::EquilibriumSolver::strategy_for`] then
//!   [`EquilibriumStrategy::cap`](fmore_auction::EquilibriumStrategy::cap)) and selects
//!   through the production streamed selector ([`auction_select_streamed`]).
//! * Fig. 11b — how many ψ-FMore selections land in the top-10 / top-20 / top-30 score ranks,
//!   walked over ranks alone ([`SelectionRule::select_indices`], the draw sequence of the
//!   streamed bounded ψ admission).
//!
//! Its tests sit under the registry names they check (`impact_n`, `impact_k` and `impact_psi`
//! beside this module) and, for the game itself, in the crate's `game` module.

use crate::error::SimError;
use crate::scenario::{ScenarioRunner, ScenarioSpec};
use crate::series::Table;
use fmore_auction::{
    Auction, AuctionError, BidStore, CobbDouglas, LinearCost, NodeId, PricingRule, ScoringRule,
    SelectionRule,
};
use fmore_fl::config::{FlConfig, ModelChoice};
use fmore_fl::engine::{auction_select_streamed, RoundEngine};
use fmore_fl::metrics::WinnerInfo;
use fmore_fl::selection::SelectionStrategy;
use fmore_ml::dataset::TaskKind;
use fmore_numerics::stats::mean;
use fmore_numerics::{seeded_rng, Distribution1D, UniformDist};
use rand::Rng;
use std::sync::Arc;

// The paper's simulator game (Section V-A): scoring `s(q) = 25·q1·q2`, linear cost
// `θ(2q1 + q2)`, capacities uniform in `[0.3, 1]`, θ uniform in `[0.1, 1]`, top-K selection
// and first-price payment.
pub(crate) const SCORING_SCALE: f64 = 25.0;
const COST_COEFFICIENTS: [f64; 2] = [2.0, 1.0];
const CAPACITY_RANGE: (f64, f64) = (0.3, 1.0);
const THETA_RANGE: (f64, f64) = (0.1, 1.0);
/// θ grid resolution of the equilibrium tabulation.
const GRID_SIZE: usize = 96;

/// The swept parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The population `N` (Fig. 9).
    N,
    /// The winner count `K` (Fig. 10).
    K,
    /// The ψ-FMore admission probability (Fig. 11).
    Psi,
}

impl Axis {
    fn symbol(self) -> &'static str {
        match self {
            Axis::N => "N",
            Axis::K => "K",
            Axis::Psi => "ψ",
        }
    }

    /// The titles of panel (a) and panel (b).
    fn titles(self) -> [&'static str; 2] {
        match self {
            Axis::N => ["Impact of N (Fig. 9)", "Payment and score vs N (Fig. 9b)"],
            Axis::K => ["Impact of K (Fig. 10)", "Payment and score vs K (Fig. 10b)"],
            Axis::Psi => [
                "Impact of ψ on training speed (Fig. 11a)",
                "Impact of ψ (Fig. 11)",
            ],
        }
    }
}

/// Configuration of one parameter figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterImpactConfig {
    /// The swept parameter.
    pub axis: Axis,
    /// The two values of the axis compared in panel (a).
    pub pair: (f64, f64),
    /// Accuracy targets of panel (a).
    pub targets: Vec<f64>,
    /// Round budget of the panel (a) training runs.
    pub rounds: usize,
    /// Base FL configuration of panel (a) (the axis overrides `N`, `K` or the strategy).
    pub fl: FlConfig,
    /// Values of the axis swept in panel (b) (whole counts on the N and K axes).
    pub values: Vec<f64>,
    /// Population of panel (b); each swept value replaces it on the N axis.
    pub n: usize,
    /// Winners of panel (b); each swept value replaces it on the K axis.
    pub k: usize,
    /// Auction games (N, K) or selections (ψ) averaged per swept value.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl ParameterImpactConfig {
    /// Sub-second configuration for tests and CI.
    pub fn quick(axis: Axis) -> Self {
        // (pair, swept values, n, k, trials, seed)
        let (pair, values, n, k, trials, seed) = match axis {
            Axis::N => ((8.0, 16.0), vec![20.0, 40.0, 80.0], 30, 5, 2, 7),
            Axis::K => ((2.0, 6.0), vec![2.0, 5.0, 8.0], 30, 5, 2, 9),
            Axis::Psi => ((0.3, 0.9), vec![0.3, 0.6, 0.9], 100, 20, 20, 21),
        };
        let fl = FlConfig::fast_test(TaskKind::MnistO);
        let (targets, rounds) = (vec![0.5, 0.7], 4);
        Self {
            axis,
            pair,
            targets,
            rounds,
            fl,
            values,
            n,
            k,
            trials,
            seed,
        }
    }

    /// The paper's configuration: `N ∈ {50, 100}` and `N ∈ {50 … 200}` at `K = 20`;
    /// `K ∈ {5, 25}` and `K ∈ {5 … 35}` at `N = 100`; ψ ∈ {0.3, 0.9} and ψ ∈ {0.3 … 0.9} at
    /// `N = 100`, `K = 20`.
    pub fn paper(axis: Axis) -> Self {
        let mut fl = FlConfig::paper_simulation(TaskKind::MnistF);
        fl.model = ModelChoice::FastSurrogate;
        fl.train_samples = 8_000;
        fl.test_samples = 1_000;
        let (pair, values, seed) = match axis {
            Axis::N => (
                (50.0, 100.0),
                vec![50.0, 80.0, 110.0, 140.0, 170.0, 200.0],
                7,
            ),
            Axis::K => (
                (5.0, 25.0),
                vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
                9,
            ),
            Axis::Psi => ((0.3, 0.9), vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], 21),
        };
        let mut config = Self {
            axis,
            pair,
            targets: vec![0.70, 0.80, 0.82, 0.84, 0.86],
            rounds: 20,
            fl,
            values,
            n: 100,
            k: 20,
            trials: 5,
            seed,
        };
        if axis == Axis::Psi {
            // The ψ extension targets small-data scenarios: smaller shards, a longer run and
            // one more target; each rank-spread point averages many cheap selections.
            config.fl.partition.size_range = (30, 150);
            config.targets.push(0.87);
            config.rounds = 30;
            config.trials = 200;
        }
        config
    }
}

/// One point of panel (b): the swept value and what the figure plots at it, in table-column
/// order — the mean winner payment and mean winner score on the N and K axes (Figs. 9b /
/// 10b), the mean number of winners among the top 10, 20 and 30 ranks on the ψ axis
/// (Fig. 11b). Means are over the configured trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept `N`, `K` or ψ.
    pub value: f64,
    /// The plotted quantities.
    pub stats: Vec<f64>,
}

/// The reproduction of one parameter figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterImpact {
    /// The swept parameter.
    pub axis: Axis,
    /// Panel (a): for each accuracy target, the rounds needed at the small and at the large
    /// end of the pair (`None` if the target was never reached within the round budget).
    pub rounds_to_accuracy: Vec<(f64, Option<usize>, Option<usize>)>,
    /// Panel (b), one point per swept value.
    pub sweep: Vec<SweepPoint>,
}

impl ParameterImpact {
    /// Panel (a), then panel (b), as Markdown tables.
    pub(crate) fn tables(&self) -> Vec<Table> {
        let symbol = self.axis.symbol();
        let (small, large) = (
            format!("rounds ({symbol} small)"),
            format!("rounds ({symbol} large)"),
        );
        let mut rounds = Table::new(self.axis.titles()[0], &["accuracy target", &small, &large]);
        let fmt = |v: Option<usize>| v.map_or("not reached".to_string(), |r| r.to_string());
        for &(target, small, large) in &self.rounds_to_accuracy {
            rounds.push_row(&[format!("{:.0}%", target * 100.0), fmt(small), fmt(large)]);
        }
        vec![rounds, sweep_table(self.axis, &self.sweep)]
    }
}

/// Panel (b) of the axis's figure as a Markdown table.
pub fn sweep_table(axis: Axis, points: &[SweepPoint]) -> Table {
    let (mut table, precision) = match axis {
        Axis::Psi => (
            Table::new(axis.titles()[1], &["ψ", "top-10", "top-20", "top-30"]),
            1,
        ),
        Axis::N | Axis::K => (
            Table::new(
                axis.titles()[1],
                &[axis.symbol(), "mean payment", "mean score"],
            ),
            4,
        ),
    };
    for p in points {
        let value = match axis {
            Axis::Psi => format!("{:.1}", p.value),
            Axis::N | Axis::K => p.value.to_string(),
        };
        let stats = p.stats.iter().map(|x| format!("{x:.precision$}"));
        table.push_row(&std::iter::once(value).chain(stats).collect::<Vec<_>>());
    }
    table
}

/// Reproduces one parameter figure: the two training runs of panel (a), then the sweep of
/// panel (b).
///
/// # Errors
///
/// Propagates trainer and auction errors.
pub fn run(
    runner: &ScenarioRunner,
    config: &ParameterImpactConfig,
) -> Result<ParameterImpact, SimError> {
    let specs: Vec<ScenarioSpec> = [config.pair.0, config.pair.1]
        .into_iter()
        .map(|v| {
            let spec = ScenarioSpec::new(
                format!("{}={v}", config.axis.symbol()),
                config.fl.clone(),
                SelectionStrategy::fmore(),
                config.rounds,
                config.seed,
            );
            match config.axis {
                Axis::N => spec.with_population(v as usize),
                Axis::K => spec.with_winners(v as usize),
                Axis::Psi => ScenarioSpec {
                    strategy: SelectionStrategy::psi_fmore(v),
                    ..spec
                },
            }
        })
        .collect();
    let outcomes = runner.run_all(&specs)?;
    let rounds_to_accuracy = config
        .targets
        .iter()
        .map(|&target| {
            (
                target,
                outcomes[0].history.rounds_to_accuracy(target),
                outcomes[1].history.rounds_to_accuracy(target),
            )
        })
        .collect();
    Ok(ParameterImpact {
        axis: config.axis,
        rounds_to_accuracy,
        sweep: sweep(runner, config)?,
    })
}

/// Panel (b) alone: one point per swept value, the points in parallel on the runner's pool.
/// On the N and K axes `K` is clamped to `N` and each point is seeded with `seed` plus the
/// swept count; every ψ point is seeded with `seed`.
///
/// # Errors
///
/// Propagates solver-construction and selection errors.
pub fn sweep(
    runner: &ScenarioRunner,
    config: &ParameterImpactConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    let (axis, n, k, trials, seed) = (config.axis, config.n, config.k, config.trials, config.seed);
    runner
        .map(config.values.clone(), move |v| {
            let point = |value, stats: &[f64]| SweepPoint {
                value,
                stats: stats.to_vec(),
            };
            Ok(match axis {
                Axis::N => {
                    let n = v as usize;
                    point(
                        n as f64,
                        &auction_game(n, k.min(n), trials, seed + n as u64)?,
                    )
                }
                Axis::K => {
                    let k = (v as usize).min(n);
                    point(k as f64, &auction_game(n, k, trials, seed + k as u64)?)
                }
                Axis::Psi => point(v, &rank_spread(v, n, k, trials, seed)),
            })
        })
        .into_iter()
        .collect()
}

/// Mean winner payment and mean winner score over `trials` rounds of the simulator game
/// with `n` bidders and `k` winners. Each trial draws every node's θ, then its capacities,
/// from one seeded stream; bids are held equilibrium strategies capped to the capacities,
/// and winners come from the streamed selector over one in-memory shard.
pub(crate) fn auction_game(
    n: usize,
    k: usize,
    trials: usize,
    seed: u64,
) -> Result<[f64; 2], SimError> {
    let scoring = CobbDouglas::with_scale(SCORING_SCALE, vec![1.0; COST_COEFFICIENTS.len()])?;
    let theta = UniformDist::new(THETA_RANGE.0, THETA_RANGE.1).map_err(AuctionError::from)?;
    let auction = Auction::new(
        ScoringRule::new(scoring),
        k,
        SelectionRule::TopK,
        PricingRule::FirstPrice,
    );
    let cost = LinearCost::new(COST_COEFFICIENTS.to_vec())?;
    let solver = auction.equilibrium(cost, THETA_RANGE, n, GRID_SIZE)?;
    let engine = RoundEngine::inline();
    let mut rng = seeded_rng(seed);
    let trials = trials.max(1);
    let (mut payments, mut scores) = (Vec::with_capacity(trials), Vec::with_capacity(trials));
    for _ in 0..trials {
        let mut bids = Vec::with_capacity(n);
        for i in 0..n {
            let t = theta.sample(&mut rng);
            let capacity: Vec<f64> = COST_COEFFICIENTS
                .iter()
                .map(|_| rng.gen_range(CAPACITY_RANGE.0..=CAPACITY_RANGE.1))
                .collect();
            bids.push(solver.strategy_for(t)?.cap(NodeId(i as u64), &capacity)?);
        }
        let bids = Arc::new(bids);
        let fill = Arc::new(move |range: std::ops::Range<usize>, store: &mut BidStore| {
            bids[range]
                .iter()
                .try_for_each(|b| store.push(b.node, b.quality.as_slice(), b.ask))
        });
        let stage =
            auction_select_streamed(&auction, n, n, 0, &engine, fill, &mut rng, |a| WinnerInfo {
                client: a.node.0 as usize,
                node: a.node,
                data_size: 1,
                categories: 1,
                score: a.score,
                payment: a.payment,
            })?;
        let winners = stage.winners.len() as f64;
        payments.push(stage.winners.iter().map(|w| w.payment).sum::<f64>() / winners);
        scores.push(stage.winners.iter().map(|w| w.score).sum::<f64>() / winners);
    }
    Ok([mean(&payments), mean(&scores)])
}

/// Selects `k` of `n` ranks with the ψ-FMore walk `trials` times and returns the mean number
/// of selections among the top 10, 20 and 30 ranks.
pub(crate) fn rank_spread(psi: f64, n: usize, k: usize, trials: usize, seed: u64) -> [f64; 3] {
    let rule = SelectionRule::PsiFMore { psi };
    let mut rng = seeded_rng(seed);
    let trials = trials.max(1);
    let mut counts = [0usize; 3];
    for _ in 0..trials {
        let winners = rule.select_indices(n, k, &mut rng);
        for (count, top) in counts.iter_mut().zip([10, 20, 30]) {
            *count += winners.iter().filter(|&&i| i < top).count();
        }
    }
    counts.map(|c| c as f64 / trials as f64)
}
