//! The population-scale experiment family: selection rounds over lazily materialised node
//! populations, swept from thousands to a million bidders.
//!
//! Three registry entries ride on the same per-`N` machinery:
//!
//! * `scale-selection` — one full streamed selection round per population size (bid
//!   derivation → sharded scoring → bounded top-K → payments): winner statistics, the
//!   bounded standing store, and (at paper fidelity) the selection wall-clock;
//! * `scale-memory` — the stage's peak resident bid bytes against what a dense columnar
//!   store of the whole population would hold;
//! * `scale-parity` — on overlapping sizes, the streamed winner set and payments checked
//!   **bit-identical** against the dense full-sort [`fmore_auction::Auction::run`] path
//!   over the same bids.
//!
//! Bids are the capacity-capped equilibrium bids of the cluster's three-resource game,
//! priced through the O(1) tabulated ask path
//! ([`fmore_auction::EquilibriumSolver::tabulated_bids_at`]); node attributes come from a
//! [`fmore_mec::population::NodePopulation`] — derived per `(seed, i)`, never stored — so
//! the only `O(N)` cost of a round is arithmetic, not memory.
//!
//! Most of that arithmetic is skipped. A node's equilibrium bid is a function of its θ, so
//! the solver's per-θ-cell score ceiling under the auction's rule
//! ([`fmore_auction::EquilibriumSolver::score_ceiling`]) bounds the score it can reach
//! before anything else about it is derived. From the second wave of shards on, the
//! streamed stage hands each shard store the round's best dropped score so far as its omit
//! bound, and the filler
//! ([`fmore_mec::population::NodePopulation::bid_range_into_store_pruned`]) derives,
//! prices and stores only the nodes whose ceiling reaches it — about one in seven of a
//! million-bidder round. The rest could neither enter the pool nor move the best dropped
//! score, so winners, payments, keys and RNG draws are those of the unpruned round, and
//! every bid still counts as offered. The dense twin ([`ScaleGame::run_dense`]) fills a
//! store with no bound, which omits nothing.
//!
//! Quick fidelity keeps every column deterministic (wall-clock is reported as `-`), so the
//! golden suite fingerprints these entries like any other figure; the benchmark's
//! `select-1m` and `select-psi-250k` workloads carry the tracked times.

use crate::error::SimError;
use crate::scenario::ScenarioRunner;
use crate::series::Table;
use fmore_auction::{
    Additive, Auction, AuctionError, EquilibriumSolver, LinearCost, PricingRule, Quality,
    ScoreCeiling, ScoringRule, SelectionRule, SubmittedBid,
};
use fmore_fl::engine::{auction_select_streamed, RoundEngine, StreamedAuction};
use fmore_fl::metrics::WinnerInfo;
use fmore_mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore_numerics::rng::derive_seed;
use fmore_numerics::{seeded_rng, UniformDist};
use std::sync::Arc;
use std::time::Instant;

/// Per-bid footprint of a dense columnar store at the scale game's three resource
/// dimensions: node id + three quality components + ask + score.
const DENSE_BID_BYTES: usize = 8 + 3 * 8 + 8 + 8;

/// The shard-filler closure type of the scale game: derives one index range of sealed bids
/// into a columnar store.
type ShardFiller = dyn Fn(std::ops::Range<usize>, &mut fmore_auction::BidStore) -> Result<(), AuctionError>
    + Send
    + Sync;

/// Configuration of the population-scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Population sizes `N` swept, in order.
    pub populations: Vec<usize>,
    /// Winners per round `K`.
    pub winners: usize,
    /// Bids per streamed shard.
    pub shard_size: usize,
    /// Standing candidates kept beyond `K` (pricing look-back + re-auction reserve).
    pub reserve: usize,
    /// Dense-path parity is checked for every `N` up to this bound.
    pub parity_limit: usize,
    /// θ grid resolution of the equilibrium tabulation.
    pub grid_size: usize,
    /// Base seed; each population point derives its own stream.
    pub seed: u64,
    /// Measure selection wall-clock (paper fidelity only — timings are not fingerprintable).
    pub timed: bool,
    /// RNG stream contract the populations derive bids under
    /// ([`SpecVersion::V1`] reproduces every committed golden; [`SpecVersion::V2`] is the
    /// fused single-stream derivation with its own goldens).
    pub spec_version: SpecVersion,
}

impl ScaleConfig {
    /// Sub-second configuration for tests and CI smoke runs.
    pub fn quick() -> Self {
        Self {
            populations: vec![1_000, 5_000, 20_000],
            winners: 64,
            shard_size: 4_096,
            reserve: 64,
            parity_limit: 5_000,
            grid_size: 96,
            seed: 4_242,
            timed: false,
            spec_version: SpecVersion::V1,
        }
    }

    /// The same configuration under a different population stream contract.
    pub fn with_spec_version(mut self, version: SpecVersion) -> Self {
        self.spec_version = version;
        self
    }

    /// The full sweep: `N` from 10³ to 10⁶, timed.
    pub fn paper() -> Self {
        Self {
            populations: vec![1_000, 10_000, 100_000, 1_000_000],
            winners: 64,
            shard_size: 8_192,
            reserve: 64,
            parity_limit: 10_000,
            grid_size: 128,
            seed: 4_242,
            timed: true,
            spec_version: SpecVersion::V1,
        }
    }
}

/// The per-`N` machinery shared by every scale entry (and by the scale smokes of the
/// integration tests): a lazily derived population, the tabulated equilibrium solver, and the auction of one
/// selection round.
pub struct ScaleGame {
    population: NodePopulation,
    solver: Arc<EquilibriumSolver>,
    /// The solver's per-θ-cell score ceiling under the auction's rule, which lets the
    /// filler omit what cannot beat the round's best dropped score.
    ceiling: Arc<ScoreCeiling>,
    auction: Auction,
    selection_seed: u64,
}

impl ScaleGame {
    /// Builds the game for a population of `n` nodes under `config` (solver tabulation
    /// happens here, once — not inside the per-round path). Selection is the paper's
    /// top-K; [`ScaleGame::with_selection`] swaps in another rule.
    ///
    /// # Errors
    ///
    /// Propagates population and solver construction failures.
    pub fn new(n: usize, config: &ScaleConfig) -> Result<Self, SimError> {
        Self::with_selection(n, config, SelectionRule::TopK)
    }

    /// [`ScaleGame::new`] under an explicit selection rule — the ψ-FMore rounds of the
    /// scale tests ride on this constructor; everything else (population stream, solver
    /// tabulation, per-`N` selection seed) is identical, so a ψ game at the same `n`
    /// draws the very same bid population as the top-K game.
    ///
    /// # Errors
    ///
    /// Propagates population and solver construction failures.
    pub fn with_selection(
        n: usize,
        config: &ScaleConfig,
        selection: SelectionRule,
    ) -> Result<Self, SimError> {
        let spec = PopulationSpec::scale_default(n, derive_seed(config.seed, n as u64))
            .with_version(config.spec_version);
        let population = NodePopulation::new(spec)?;
        let scoring = Additive::new(vec![0.4, 0.3, 0.3])?;
        let cost = LinearCost::new(vec![0.3, 0.3, 0.4])?;
        let theta =
            UniformDist::new(spec.theta_range.0, spec.theta_range.1).map_err(AuctionError::from)?;
        let k = config.winners.min(n);
        let solver = EquilibriumSolver::builder()
            .scoring(scoring.clone())
            .cost(cost)
            .theta(theta)
            .bounds(vec![(0.0, 1.0); 3])
            .population(n)
            .winners(k)
            .grid_size(config.grid_size)
            .build()?;
        let auction = Auction::new(
            ScoringRule::new(scoring),
            k,
            selection,
            PricingRule::FirstPrice,
        );
        let ceiling = solver.score_ceiling(auction.scoring_rule())?;
        Ok(Self {
            population,
            solver: Arc::new(solver),
            ceiling: Arc::new(ceiling),
            auction,
            selection_seed: derive_seed(config.seed, 0xCA1E ^ n as u64),
        })
    }

    /// The shard filler: derives each node's capacity-capped tabulated equilibrium bid on
    /// demand — O(1) state per node, none of it retained.
    fn filler(&self) -> Arc<ShardFiller> {
        let population = self.population;
        let solver = Arc::clone(&self.solver);
        let ceiling = Arc::clone(&self.ceiling);
        Arc::new(move |range, store| {
            // One columnar pipeline per shard under either stream contract (θ pre-pass
            // against the store's omit bound → derivation → batched grid lookup →
            // batched table tail), bit-identical to the per-node theta + quality_into +
            // tabulated_bid_into sequence at every stored offset and appended through
            // the store's trusted path.
            population.bid_range_into_store_pruned(range, 0, &solver, &ceiling, store)?;
            Ok(())
        })
    }

    /// One streamed selection round (bid derivation → sharded scoring → bounded top-K →
    /// payments).
    ///
    /// # Errors
    ///
    /// Propagates streaming-stage failures.
    pub fn run_streamed(
        &self,
        engine: &RoundEngine,
        config: &ScaleConfig,
    ) -> Result<StreamedAuction, SimError> {
        let mut rng = seeded_rng(self.selection_seed);
        let stage = auction_select_streamed(
            &self.auction,
            self.population.len(),
            config.shard_size,
            config.reserve,
            engine,
            self.filler(),
            &mut rng,
            |award| WinnerInfo {
                client: award.node.0 as usize,
                node: award.node,
                data_size: 1,
                categories: 1,
                score: award.score,
                payment: award.payment,
            },
        )?;
        Ok(stage)
    }

    /// The dense twin over the identical bids (only sensible at parity-check sizes).
    ///
    /// # Errors
    ///
    /// Propagates bid-derivation and dense-auction failures.
    pub fn run_dense(&self) -> Result<fmore_auction::AuctionOutcome, SimError> {
        let fill = self.filler();
        let mut store = fmore_auction::BidStore::with_capacity(3, self.population.len());
        fill(0..self.population.len(), &mut store)?;
        let bids: Vec<SubmittedBid> = (0..store.len())
            .map(|i| {
                SubmittedBid::new(
                    store.node(i),
                    Quality::new(store.quality(i).to_vec()),
                    store.ask(i),
                )
            })
            .collect();
        let mut rng = seeded_rng(self.selection_seed);
        Ok(self.auction.run(bids, &mut rng)?)
    }
}

/// One population point of the `scale-selection` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Population size `N`.
    pub n: usize,
    /// Bids streamed through the selector.
    pub offered: usize,
    /// Winners awarded.
    pub winners: usize,
    /// Total payment promised.
    pub total_payment: f64,
    /// Mean winner score.
    pub mean_score: f64,
    /// Standing candidates kept after selection.
    pub standing: usize,
    /// Selection wall-clock in milliseconds, when timed.
    ///
    /// Peak resident bid bytes are deliberately not recorded here: they scale with the
    /// engine's wave width, which would make the figure depend on the pool size. The
    /// `scale-memory` figure measures them on the inline engine, where the bound is the
    /// single-threaded `O(shard + K)`.
    pub selection_ms: Option<f64>,
}

/// The `scale-selection` figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFigure {
    /// One point per swept population size.
    pub points: Vec<ScalePoint>,
}

impl ScaleFigure {
    /// Markdown table of the sweep.
    pub(crate) fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Population-scale selection: streamed top-K over lazily derived bidders",
            &[
                "N",
                "bids",
                "winners",
                "total payment",
                "mean winner score",
                "standing",
                "sel ms",
            ],
        );
        for p in &self.points {
            t.push_row(&[
                p.n.to_string(),
                p.offered.to_string(),
                p.winners.to_string(),
                format!("{:.4}", p.total_payment),
                format!("{:.4}", p.mean_score),
                p.standing.to_string(),
                p.selection_ms
                    .map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}")),
            ]);
        }
        t
    }
}

/// Runs the `scale-selection` sweep.
///
/// # Errors
///
/// Propagates solver/auction construction and streaming failures.
pub fn run_selection(
    runner: &ScenarioRunner,
    config: &ScaleConfig,
) -> Result<ScaleFigure, SimError> {
    let engine = runner.engine();
    let mut points = Vec::with_capacity(config.populations.len());
    for &n in &config.populations {
        let game = ScaleGame::new(n, config)?;
        let started = Instant::now();
        let stage = game.run_streamed(&engine, config)?;
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        let mean_score = if stage.winners.is_empty() {
            0.0
        } else {
            stage.winners.iter().map(|w| w.score).sum::<f64>() / stage.winners.len() as f64
        };
        points.push(ScalePoint {
            n,
            offered: stage.offered,
            winners: stage.winners.len(),
            total_payment: stage.winners.iter().map(|w| w.payment).sum(),
            mean_score,
            standing: stage.standing.len(),
            selection_ms: config.timed.then_some(elapsed_ms),
        });
    }
    Ok(ScaleFigure { points })
}

/// One row of the `scale-memory` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPoint {
    /// Population size `N`.
    pub n: usize,
    /// Peak resident bid bytes of the streamed stage (`O(width · shard + K)`).
    pub streamed_bytes: usize,
    /// Bytes a dense columnar store of the full population holds (`O(N)`).
    pub dense_bytes: usize,
}

/// The `scale-memory` figure.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryFigure {
    /// One point per swept population size.
    pub points: Vec<MemoryPoint>,
}

impl MemoryFigure {
    /// Markdown table of the comparison.
    pub(crate) fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Population-scale memory: streamed peak vs dense bid store",
            &[
                "N",
                "streamed peak (KiB)",
                "dense store (KiB)",
                "dense/streamed",
            ],
        );
        for p in &self.points {
            let ratio = p.dense_bytes as f64 / p.streamed_bytes.max(1) as f64;
            t.push_row(&[
                p.n.to_string(),
                format!("{:.1}", p.streamed_bytes as f64 / 1024.0),
                format!("{:.1}", p.dense_bytes as f64 / 1024.0),
                format!("{ratio:.1}x"),
            ]);
        }
        t
    }
}

/// Runs the `scale-memory` comparison — the streamed stage is executed inline (width 1) so
/// the reported peak is the single-threaded `O(shard + K)` bound.
///
/// # Errors
///
/// Propagates solver/auction construction and streaming failures.
pub fn run_memory(
    _runner: &ScenarioRunner,
    config: &ScaleConfig,
) -> Result<MemoryFigure, SimError> {
    let engine = RoundEngine::inline();
    let mut points = Vec::with_capacity(config.populations.len());
    for &n in &config.populations {
        let game = ScaleGame::new(n, config)?;
        let stage = game.run_streamed(&engine, config)?;
        points.push(MemoryPoint {
            n,
            streamed_bytes: stage.peak_bid_bytes,
            dense_bytes: n * DENSE_BID_BYTES,
        });
    }
    Ok(MemoryFigure { points })
}

/// One row of the `scale-parity` check.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityPoint {
    /// Population size `N`.
    pub n: usize,
    /// Whether the streamed winner sequence equals the dense one node-for-node.
    pub winners_identical: bool,
    /// Maximum absolute payment difference across winners (bitwise-equal paths show 0).
    pub max_payment_delta: f64,
    /// Winners compared.
    pub winners: usize,
}

/// The `scale-parity` figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityFigure {
    /// One point per checked population size.
    pub points: Vec<ParityPoint>,
}

impl ParityFigure {
    /// Markdown table of the check.
    pub(crate) fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Population-scale parity: streamed selection vs dense full-sort",
            &["N", "winners", "identical", "max |payment delta|"],
        );
        for p in &self.points {
            t.push_row(&[
                p.n.to_string(),
                p.winners.to_string(),
                if p.winners_identical { "yes" } else { "NO" }.to_string(),
                format!("{:.1e}", p.max_payment_delta),
            ]);
        }
        t
    }

    /// Whether every checked size was bit-identical.
    pub fn all_identical(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.winners_identical && p.max_payment_delta == 0.0)
    }
}

/// Runs the `scale-parity` check for every swept `N` within the config's parity bound.
///
/// # Errors
///
/// Propagates solver/auction construction, dense-run, and streaming failures.
pub fn run_parity(runner: &ScenarioRunner, config: &ScaleConfig) -> Result<ParityFigure, SimError> {
    let engine = runner.engine();
    let mut points = Vec::new();
    for &n in &config.populations {
        if n > config.parity_limit {
            continue;
        }
        let game = ScaleGame::new(n, config)?;
        let streamed = game.run_streamed(&engine, config)?;
        let dense = game.run_dense()?;
        let winners_identical = streamed.winners.len() == dense.winners().len()
            && streamed
                .winners
                .iter()
                .zip(dense.winners())
                .all(|(s, d)| s.node == d.node && s.score.to_bits() == d.score.to_bits());
        let max_payment_delta = streamed
            .winners
            .iter()
            .zip(dense.winners())
            .map(|(s, d)| (s.payment - d.payment).abs())
            .fold(0.0, f64::max);
        points.push(ParityPoint {
            n,
            winners_identical,
            max_payment_delta,
            winners: streamed.winners.len(),
        });
    }
    Ok(ParityFigure { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            populations: vec![500, 2_000],
            winners: 16,
            shard_size: 256,
            reserve: 16,
            parity_limit: 2_000,
            grid_size: 48,
            seed: 7,
            timed: false,
            spec_version: SpecVersion::V1,
        }
    }

    #[test]
    fn selection_sweep_produces_full_winner_sets() {
        let runner = ScenarioRunner::new();
        let figure = run_selection(&runner, &tiny()).unwrap();
        assert_eq!(figure.points.len(), 2);
        for p in &figure.points {
            assert_eq!(p.offered, p.n);
            assert_eq!(p.winners, 16);
            assert!(p.total_payment > 0.0);
            assert!(p.mean_score > 0.0);
            assert!(p.standing <= 32);
            assert_eq!(p.selection_ms, None);
        }
        let table = figure.to_table();
        assert_eq!(table.rows.len(), 2);
        assert!(table.to_markdown().contains("streamed top-K"));
    }

    #[test]
    fn selection_sweep_is_deterministic() {
        let runner = ScenarioRunner::new();
        let a = run_selection(&runner, &tiny()).unwrap();
        let b = run_selection(&ScenarioRunner::with_threads(1), &tiny()).unwrap();
        assert_eq!(a, b, "pool size must not change the sweep");
    }

    #[test]
    fn memory_comparison_shows_sublinear_growth() {
        let runner = ScenarioRunner::new();
        let figure = run_memory(&runner, &tiny()).unwrap();
        assert_eq!(figure.points.len(), 2);
        let small = &figure.points[0];
        let large = &figure.points[1];
        assert_eq!(large.dense_bytes, 4 * small.dense_bytes);
        // Streamed peak is bounded by the shard, so it cannot scale with N.
        assert!(large.streamed_bytes <= small.streamed_bytes * 2);
        assert!(figure.to_table().to_markdown().contains("dense/streamed"));
    }

    #[test]
    fn parity_holds_bit_for_bit_on_small_sizes() {
        let runner = ScenarioRunner::new();
        let figure = run_parity(&runner, &tiny()).unwrap();
        assert_eq!(figure.points.len(), 2);
        assert!(figure.all_identical(), "{:?}", figure.points);
        for p in &figure.points {
            assert_eq!(p.winners, 16);
        }
    }

    #[test]
    fn v2_spec_changes_the_draws_but_keeps_every_invariant() {
        let runner = ScenarioRunner::new();
        let v2 = tiny().with_spec_version(SpecVersion::V2);
        // The streamed/dense parity contract is version-independent…
        let parity = run_parity(&runner, &v2).unwrap();
        assert!(parity.all_identical(), "{:?}", parity.points);
        // …the sweep is deterministic across pool widths…
        let a = run_selection(&runner, &v2).unwrap();
        let b = run_selection(&ScenarioRunner::with_threads(1), &v2).unwrap();
        assert_eq!(a, b);
        // …and the v2 stream really is a different fleet than v1.
        let v1 = run_selection(&runner, &tiny()).unwrap();
        assert_ne!(a, v1, "v2 must not replay the v1 draws");
        for p in &a.points {
            assert_eq!(p.winners, 16);
            assert!(p.total_payment > 0.0);
        }
    }

    #[test]
    fn psi_selection_is_bit_identical_to_dense_and_stays_bounded() {
        let config = tiny();
        let engine = RoundEngine::inline();
        let mut peaks = Vec::new();
        for &n in &config.populations {
            let game = ScaleGame::with_selection(n, &config, SelectionRule::PsiFMore { psi: 0.8 })
                .unwrap();
            let streamed = game.run_streamed(&engine, &config).unwrap();
            let dense = game.run_dense().unwrap();
            assert_eq!(streamed.winners.len(), dense.winners().len());
            for (s, d) in streamed.winners.iter().zip(dense.winners()) {
                assert_eq!(s.node, d.node);
                assert_eq!(s.score.to_bits(), d.score.to_bits());
                assert_eq!(s.payment.to_bits(), d.payment.to_bits());
            }
            peaks.push(streamed.peak_bid_bytes);
        }
        // The bounded ψ admission keeps the peak at shard scale: quadrupling the
        // population must not move resident bid bytes past the shard-bounded envelope.
        assert!(
            peaks[1] <= peaks[0] * 2,
            "psi streamed peak grew with N: {peaks:?}"
        );
    }

    #[test]
    fn parity_respects_the_limit() {
        let mut config = tiny();
        config.parity_limit = 600;
        let figure = run_parity(&ScenarioRunner::new(), &config).unwrap();
        assert_eq!(figure.points.len(), 1, "only N=500 is within the limit");
    }
}
