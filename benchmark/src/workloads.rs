//! The four workloads: what each builds, what one round of it is, and what it folds into
//! its digest. Every workload is a fixed, seeded sequence — cold build, `warmup` rounds,
//! `rounds` timed rounds — so every pass of every run times the identical computation.
//!
//! The seed reaches the program under test only through generated inputs: the trainer
//! seed, `ScaleConfig::seed` and `SoakConfig::seed`.

use crate::stats::{self, Digest};
use fmore_auction::SelectionRule;
use fmore_fl::config::{FlConfig, ModelChoice};
use fmore_fl::engine::{FanOutGranularity, RoundEngine, StreamedAuction};
use fmore_fl::service::{AuctionService, JobId, JobSpec, ServiceConfig};
use fmore_fl::{FederatedTrainer, SelectionStrategy};
use fmore_mec::population::SpecVersion;
use fmore_ml::dataset::TaskKind;
use fmore_sim::experiments::adversary_soak::{self, AdversaryConfig};
use fmore_sim::experiments::chaos_soak::{self, ChaosConfig};
use fmore_sim::experiments::scale::{ScaleConfig, ScaleGame};
use fmore_sim::experiments::service_soak::{self, SoakConfig};

/// The seed `expected.json` was recorded under.
pub const DEFAULT_SEED: u64 = 54;

/// Tenants of the `fleet-mixed` service.
pub const FLEET_TENANTS: usize = 8;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainRound,
    Select1m,
    SelectPsi250k,
    FleetMixed,
}

/// Every workload, in the order a full run executes them.
pub const ALL: [Kind; 4] = [
    Kind::TrainRound,
    Kind::Select1m,
    Kind::SelectPsi250k,
    Kind::FleetMixed,
];

impl Kind {
    /// The name used on the command line, in `BENCHMARK.json` and in `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TrainRound => "train-round",
            Kind::Select1m => "select-1m",
            Kind::SelectPsi250k => "select-psi-250k",
            Kind::FleetMixed => "fleet-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Untimed rounds after the cold build (they finish lazy set-up and fill caches; their
    /// wall time is part of `setup_s`).
    pub fn warmup(self) -> usize {
        match self {
            Kind::TrainRound => TRAINER_WARMUP * TRAINERS,
            Kind::SelectPsi250k => 3,
            Kind::Select1m => 5,
            Kind::FleetMixed => 25 * FLEET_TENANTS,
        }
    }

    /// Timed rounds per pass. Fixed counts, never a time limit; at least 100, so ten samples
    /// lie beyond the reported p90.
    pub fn rounds(self) -> usize {
        match self {
            Kind::TrainRound | Kind::SelectPsi250k => 100,
            Kind::Select1m => 120,
            Kind::FleetMixed => 100 * FLEET_TENANTS,
        }
    }

    /// What one pass (cold build + warm-up + timed sequence) costs on the reference box, in
    /// milliseconds: the unit a `--seconds` budget is counted out in.
    pub fn pass_ms(self) -> u64 {
        match self {
            Kind::TrainRound => 1_700,
            Kind::Select1m => 3_300,
            Kind::SelectPsi250k => 3_800,
            Kind::FleetMixed => 600,
        }
    }

    /// Worker threads of the pool every pass of this workload builds; 0 means the inline
    /// engine. A pool's submitting thread executes units too, so a budget of
    /// [`stats::busy_threads`] is that many minus one workers — none on one or two hardware
    /// threads, where the round runs on `RoundEngine::inline()`. `fleet-mixed` is the
    /// exception: the service is the executor's workload (some ten 16-task fan-outs a
    /// round), so it always gets a pool — of one worker there, which tasks of microseconds
    /// leave asleep most of the time (CPU time ÷ wall time reads 0.9–1.0).
    pub fn pool_workers(self, hardware_threads: usize) -> usize {
        let workers = stats::busy_threads(hardware_threads) - 1;
        match self {
            Kind::FleetMixed => workers.max(1),
            _ => workers,
        }
    }

    /// A fresh engine of [`Kind::pool_workers`] workers.
    pub fn engine(self, hardware_threads: usize) -> RoundEngine {
        match self.pool_workers(hardware_threads) {
            0 => RoundEngine::inline(),
            workers => RoundEngine::pooled(workers),
        }
    }

    /// [`Kind::engine`] in words, for the report.
    pub fn engine_name(self, hardware_threads: usize) -> String {
        match self.pool_workers(hardware_threads) {
            0 => "inline".into(),
            workers => format!("pooled({workers})"),
        }
    }

    /// Rounds of the traced replay (and of the untraced program interleaved with it).
    pub fn trace_rounds(self) -> usize {
        match self {
            Kind::FleetMixed => 200 * FLEET_TENANTS,
            _ => 20,
        }
    }
}

/// What the generic pass driver needs from a workload.
pub trait Workload: Sized {
    /// The cold build: everything a fresh process would construct before its first round.
    fn build(seed: u64, engine: &RoundEngine) -> Result<Self, String>;

    /// One closed-loop round. Folds the round's outputs into `digest` and checks the
    /// workload's invariants; `Err` marks the operation failed.
    fn round(&mut self, engine: &RoundEngine, digest: &mut Digest) -> Result<(), String>;

    /// End-of-pass fold for outputs that only exist once the sequence is over.
    fn finish(self, _digest: &mut Digest) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// train-round
// ---------------------------------------------------------------------------

/// The paper's simulation (100 clients, non-IID MNIST-O stand-in, the CNN of footnote 1)
/// cut to K = 10 winners over 20-sample shards and 50 test samples, so one round is ~13 ms
/// inline and a 28 s run affords sixteen passes: a round this long is rarely undisturbed on
/// a busy box, and only the pass count gives each round index a clean sample (README.md,
/// "Noise"). Every shard has the same size — with the paper's ranged sizes the samples
/// trained per round, and with them every round metric, follow whichever clients a seed
/// makes the cheapest (measured ±6 % across seeds); the per-round variation comes from the
/// availability draw instead.
pub fn train_config() -> FlConfig {
    let mut config = FlConfig::paper_simulation(TaskKind::MnistO);
    config.model = ModelChoice::PaperModel;
    config.winners_per_round = 10;
    config.train_samples = 5_000;
    config.test_samples = 50;
    config.partition.size_range = (20, 20);
    config.local_epochs = 1;
    config
}

/// Independent trainers the `train-round` sequence interleaves. One trainer's round cost
/// depends on its seed by about ±4 % at identical sample counts (the convolution's backward
/// pass skips zero gradients, so cost follows the model's ReLU sparsity); averaging over
/// trainers with derived seeds keeps that out of the seed-to-seed spread.
pub const TRAINERS: usize = 4;

/// Warm-up rounds each trainer gets (the first rounds size arenas and slot models).
pub const TRAINER_WARMUP: usize = 2;

/// The seed of trainer `index` of a `train-round` sequence.
pub fn trainer_seed(seed: u64, index: usize) -> u64 {
    fmore_numerics::rng::derive_seed(seed, index as u64)
}

/// `FederatedTrainer::run_round` under FMore selection, round-robin over [`TRAINERS`]
/// trainers.
pub struct TrainRound {
    trainers: Vec<FederatedTrainer>,
    cursor: usize,
}

/// Folds what a training round produced: accuracy and loss bits, then the winner ids.
pub fn fold_round_metrics(metrics: &fmore_fl::RoundMetrics, digest: &mut Digest) {
    digest.eat(metrics.accuracy.to_bits());
    digest.eat(metrics.loss.to_bits());
    for winner in &metrics.winners {
        digest.eat(winner.node.0);
    }
}

impl Workload for TrainRound {
    fn build(seed: u64, engine: &RoundEngine) -> Result<Self, String> {
        let trainers = (0..TRAINERS)
            .map(|index| {
                FederatedTrainer::with_engine(
                    train_config(),
                    SelectionStrategy::fmore(),
                    trainer_seed(seed, index),
                    engine.clone(),
                )
                .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trainers,
            cursor: 0,
        })
    }

    fn round(&mut self, _engine: &RoundEngine, digest: &mut Digest) -> Result<(), String> {
        let trainer = &mut self.trainers[self.cursor % TRAINERS];
        self.cursor += 1;
        let metrics = trainer.run_round().map_err(|e| e.to_string())?;
        fold_round_metrics(&metrics, digest);
        let k = trainer.config().winners_per_round;
        if metrics.winners.len() != k {
            return Err(format!("{} winners, expected {k}", metrics.winners.len()));
        }
        if !(metrics.loss.is_finite() && (0.0..=1.0).contains(&metrics.accuracy)) {
            return Err(format!(
                "loss {} / accuracy {} out of range",
                metrics.loss, metrics.accuracy
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// select-1m and select-psi-250k
// ---------------------------------------------------------------------------

/// Parameters of one population-scale selection workload.
#[derive(Debug, Clone)]
pub struct SelectSetup {
    pub population: usize,
    pub config: ScaleConfig,
    pub selection: SelectionRule,
}

/// `select-1m`: a million v2 bidders, top-K. `select-psi-250k`: 250 000 v1 bidders under
/// ψ = 0.25, low enough that the deepest admitted rank lies past K + reserve = 128 for every
/// seed, so every round takes the histogram + refinement path. (At ψ = 0.4 about one seed in
/// a hundred admits its 64 winners within the pool head and the round costs half.)
pub fn select_setup(kind: Kind, seed: u64) -> SelectSetup {
    let mut config = ScaleConfig::paper();
    config.seed = seed;
    match kind {
        Kind::SelectPsi250k => SelectSetup {
            population: 250_000,
            config: config.with_spec_version(SpecVersion::V1),
            selection: SelectionRule::PsiFMore { psi: 0.25 },
        },
        _ => SelectSetup {
            population: 1_000_000,
            config: config.with_spec_version(SpecVersion::V2),
            selection: SelectionRule::TopK,
        },
    }
}

/// Folds winner ids and payment bits, and checks the invariants that hold for any seed.
pub fn check_streamed(
    stage: &StreamedAuction,
    setup: &SelectSetup,
    digest: &mut Digest,
) -> Result<(), String> {
    for winner in &stage.winners {
        digest.eat(winner.node.0);
        digest.eat(winner.payment.to_bits());
    }
    let k = setup.config.winners;
    if stage.winners.len() != k {
        return Err(format!("{} winners, expected {k}", stage.winners.len()));
    }
    if stage.offered != setup.population {
        return Err(format!(
            "offered {} of {} bidders",
            stage.offered, setup.population
        ));
    }
    if let Some(bad) = stage
        .winners
        .iter()
        .find(|w| !(w.payment.is_finite() && w.payment >= 0.0))
    {
        return Err(format!("winner {} paid {}", bad.node.0, bad.payment));
    }
    Ok(())
}

/// `ScaleGame::run_streamed`, which replays round 0 under one selection seed: the timed
/// rounds are one computation repeated, so p90 − p50 reads residual jitter directly.
pub struct Select<const PSI: bool> {
    setup: SelectSetup,
    game: ScaleGame,
}

impl<const PSI: bool> Workload for Select<PSI> {
    fn build(seed: u64, _engine: &RoundEngine) -> Result<Self, String> {
        let kind = if PSI {
            Kind::SelectPsi250k
        } else {
            Kind::Select1m
        };
        let setup = select_setup(kind, seed);
        let game = ScaleGame::with_selection(setup.population, &setup.config, setup.selection)
            .map_err(|e| e.to_string())?;
        Ok(Self { setup, game })
    }

    fn round(&mut self, engine: &RoundEngine, digest: &mut Digest) -> Result<(), String> {
        let stage = self
            .game
            .run_streamed(engine, &self.setup.config)
            .map_err(|e| e.to_string())?;
        check_streamed(&stage, &self.setup, digest)
    }
}

// ---------------------------------------------------------------------------
// fleet-mixed
// ---------------------------------------------------------------------------

/// What a `fleet-mixed` tenant exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    Clean,
    Chaos,
    Adversary,
}

/// The class of tenant `slot` (admission order).
pub fn tenant_class(slot: usize) -> TenantClass {
    match slot {
        0..=3 => TenantClass::Clean,
        4 => TenantClass::Chaos,
        _ => TenantClass::Adversary,
    }
}

const UPDATE_DIM: usize = 1_024;

/// The jobs of a soak's spec list that join the fleet.
fn pick(specs: Vec<JobSpec>, jobs: &'static [usize]) -> impl Iterator<Item = JobSpec> {
    specs
        .into_iter()
        .enumerate()
        .filter_map(move |(j, spec)| jobs.contains(&j).then_some(spec))
}

/// The eight tenants, from the repo's own spec builders: `service_soak` jobs 0–3 (clean;
/// top-K/ψ × v1/v2, deadlines on the odd half, the default median-norm screen),
/// `chaos_soak` job 3 (`FaultPlan::chaos` + watchdog retries, v2 bids), `adversary_soak`
/// jobs 3, 5 and 7 (`AdversaryPlan::byzantine`, strict reputation; trimmed mean, Krum and
/// coordinate median). Small populations make the per-round service work dominate — the
/// opposite regime to `select-1m`.
///
/// The mix is chosen so that the median and the 90th percentile of a round sit inside one
/// tenant class whatever the seed: v2 and v1 clean rounds fill the ranks to 55 %, the three
/// adversary tenants the ranks to 92 %, retried chaos rounds the rest. With two chaos
/// tenants retried rounds are a tenth of all rounds, the 90th percentile falls on either
/// side of that edge as the seed decides, and it spread 17 % over ten seeds (NOISE.md).
pub fn fleet_specs(seed: u64) -> Result<Vec<JobSpec>, String> {
    let soak = SoakConfig {
        jobs: 4,
        rounds: 0,
        population: 4_096,
        shard_size: 1_024,
        winners: 16,
        reserve: 16,
        grid_size: 128,
        seed,
        fan_out: FanOutGranularity::PerWinner,
    };
    let mut specs = service_soak::job_specs(&soak).map_err(|e| e.to_string())?;
    for spec in &mut specs {
        spec.update_dim = UPDATE_DIM;
    }
    let chaos = chaos_soak::job_specs(&ChaosConfig {
        soak: soak.clone(),
        update_dim: UPDATE_DIM,
        ..ChaosConfig::paper()
    })
    .map_err(|e| e.to_string())?;
    specs.extend(pick(chaos, &[3]));
    let adversary = adversary_soak::job_specs(&AdversaryConfig {
        soak: SoakConfig { jobs: 8, ..soak },
        update_dim: UPDATE_DIM,
        ..AdversaryConfig::paper()
    })
    .map_err(|e| e.to_string())?;
    specs.extend(pick(adversary, &[3, 5, 7]));
    debug_assert_eq!(specs.len(), FLEET_TENANTS);
    Ok(specs)
}

/// One `AuctionService` on the shared engine; the single driver calls `run_round`
/// round-robin over the tenants.
pub struct FleetMixed {
    pub service: AuctionService,
    pub ids: Vec<JobId>,
    cursor: usize,
}

impl FleetMixed {
    /// Admits `specs` to a fresh service on `engine`.
    pub fn admit(specs: Vec<JobSpec>, engine: &RoundEngine) -> Result<Self, String> {
        let service = AuctionService::with_engine(ServiceConfig::default(), engine.clone());
        let ids = specs
            .into_iter()
            .map(|spec| service.admit(spec).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            service,
            ids,
            cursor: 0,
        })
    }

    /// The tenant slot the next round goes to.
    pub fn next_slot(&self) -> usize {
        self.cursor % self.ids.len()
    }
}

impl Workload for FleetMixed {
    fn build(seed: u64, engine: &RoundEngine) -> Result<Self, String> {
        Self::admit(fleet_specs(seed)?, engine)
    }

    fn round(&mut self, _engine: &RoundEngine, _digest: &mut Digest) -> Result<(), String> {
        let id = self.ids[self.next_slot()];
        self.cursor += 1;
        let summary = self.service.run_round(id).map_err(|e| e.to_string())?;
        if summary.offered == 0 || summary.winners.len() > 16 {
            return Err(format!(
                "tenant {id}: {} winners of {} offered",
                summary.winners.len(),
                summary.offered
            ));
        }
        Ok(())
    }

    /// Every tenant's `JobHistory::fingerprint()`, in admission order.
    fn finish(self, digest: &mut Digest) -> Result<(), String> {
        for &id in &self.ids {
            let history = self.service.close(id).map_err(|e| e.to_string())?;
            digest.eat(history.fingerprint());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sequences_leave_ten_samples_past_p90() {
        for kind in ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            assert!(kind.rounds() >= 100);
        }
        assert_eq!(Kind::from_name("train"), None);
        assert_eq!(Kind::TrainRound.rounds() % TRAINERS, 0);
        assert_eq!(Kind::FleetMixed.rounds() % FLEET_TENANTS, 0);
    }

    #[test]
    fn engines_keep_one_hardware_thread_free_and_the_fleet_always_has_a_pool() {
        use fmore_fl::engine::ExecutionMode;
        for kind in ALL {
            // workers + the submitting thread = nproc − 1 busy threads.
            assert_eq!(kind.pool_workers(4), 2);
            assert_eq!(kind.engine(4).pool().expect("pooled").threads(), 2);
            assert_eq!(kind.engine_name(16), "pooled(14)");
            let fleet = kind == Kind::FleetMixed;
            for nproc in [1, 2] {
                assert_eq!(kind.pool_workers(nproc), usize::from(fleet));
            }
            let mode = kind.engine(2).mode();
            assert_eq!(mode == ExecutionMode::Pooled, fleet);
            assert_eq!(mode == ExecutionMode::Inline, !fleet);
        }
        assert_eq!(Kind::TrainRound.engine_name(2), "inline");
        assert_eq!(Kind::FleetMixed.engine_name(2), "pooled(1)");
    }

    #[test]
    fn the_fleet_is_four_clean_one_chaos_and_three_adversary_tenants() {
        let specs = fleet_specs(DEFAULT_SEED).unwrap();
        assert_eq!(specs.len(), FLEET_TENANTS);
        for (slot, spec) in specs.iter().enumerate() {
            let class = tenant_class(slot);
            assert_eq!(
                spec.faults.is_some(),
                class == TenantClass::Chaos,
                "{}",
                spec.name
            );
            assert_eq!(
                spec.adversaries.is_some(),
                class == TenantClass::Adversary,
                "{}",
                spec.name
            );
            assert_eq!(spec.update_dim, UPDATE_DIM);
            assert_eq!(spec.population, 4_096);
        }
    }
}
