//! The traced run: per-layer metrics measured from outside, by timing calls into each
//! layer's public functions.
//!
//! For the select workloads the benchmark replays the round stage by stage through the same
//! public constructors and functions `ScaleGame` uses, a span around each call; the replay
//! is only valid if it reproduces `run_streamed`'s winners and payments, and one that
//! drifts marks the run incorrect. A training round's stages are called directly on inputs
//! of the workload's shapes and compared to the untraced trainer by cost alone; a service
//! round is one call from outside, so the fleet's spans are whole rounds of a twin service
//! whose histories must equal the untraced one's. Layers no round reaches in isolation are
//! probed directly (min-of-N around one public call).
//!
//! Every traced run measures every layer, whichever `--workload` it was given: the named
//! workload only decides whose rounds run first (so `process.peak_rss_mb` is its peak) and
//! whose tracing overhead `trace.overhead_share` reports.

use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::workloads::{
    self, check_streamed, fleet_specs, select_setup, tenant_class, train_config, FleetMixed, Kind,
    SelectSetup, TenantClass, Workload, FLEET_TENANTS,
};
use fmore_auction::{
    Additive, Auction, BidStore, CobbDouglas, EquilibriumSolver, LinearCost, NodeId, PricingRule,
    RankRefiner, ScoreHistogram, ScoringRule, SelectionRule, ShardSelection,
};
use fmore_bench::timing::min_time_ns;
use fmore_fl::aggregator::{
    AggregationRule, AggregationScratch, CoordinateMedian, FedAvg, Krum, MedianNormScreen,
    ScreenPolicy, TrimmedMean,
};
use fmore_fl::engine::{
    aggregate_with_rule, auction_select, auction_select_streamed, collect_bids, local_training,
    RoundEngine, SlotState, Task, TrainingJob, WorkerPool,
};
use fmore_fl::selection::AuctionSelectionConfig;
use fmore_fl::service::{AuctionService, JobCheckpoint, JobSpec, ServiceConfig};
use fmore_fl::{EdgeClient, FederatedTrainer, SelectionStrategy, WinnerInfo};
use fmore_mec::population::{NodePopulation, PopulationSpec};
use fmore_ml::arena::ScratchArena;
use fmore_ml::dataset::image_spec_for;
use fmore_ml::layers::{Conv2d, ImageShape, MaxPool2d};
use fmore_ml::matrix::Matrix;
use fmore_ml::model::{Model, Sequential};
use fmore_ml::models;
use fmore_ml::partition::partition_non_iid;
use fmore_numerics::rng::derive_seed;
use fmore_numerics::{seeded_rng, Distribution1D, UniformDist};
use fmore_sim::experiments::scale::ScaleGame;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, as `(name, unit, better)`, grouped by the repo module it
/// measures. `BENCHMARK.json` lists exactly these names.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    // mec::population — NodePopulation::bid_range_into_store
    ("population.fill_v2_ns_per_bid", "ns", "lower"),
    ("population.fill_v1_ns_per_bid", "ns", "lower"),
    // auction::equilibrium — builder().build(), grid_pos_batch + tabulated_bid_append_at
    ("equilibrium.build_ms", "ms", "lower"),
    ("equilibrium.lookup_ns_per_bid", "ns", "lower"),
    // auction::scoring — BidStore::score_with
    ("scoring.score_ns_per_bid", "ns", "lower"),
    // auction::store
    ("store.shard_select_ns_per_bid", "ns", "lower"),
    ("store.merge_us_per_round", "us", "lower"),
    ("store.histogram_ns_per_bid", "ns", "lower"),
    ("store.refine_ns_per_bid", "ns", "lower"),
    ("store.refine_rounds", "count", "lower"),
    ("store.peak_bid_bytes", "B", "lower"),
    // auction::mechanism
    ("mechanism.award_us_per_round", "us", "lower"),
    ("mechanism.dense_run_us", "us", "lower"),
    // fl::engine
    ("engine.streamed_overhead_share", "ratio", "lower"),
    ("engine.train_fanout_ms", "ms", "lower"),
    // fl::executor
    ("executor.dispatch_us_per_task", "us", "lower"),
    ("executor.inline_vs_pooled_ratio", "ratio", "higher"),
    ("executor.speedup_w2", "ratio", "higher"),
    ("executor.stall_wakeups", "count", "lower"),
    // ml
    ("ml.train_us_per_sample", "us", "lower"),
    ("ml.eval_ms", "ms", "lower"),
    ("ml.matmul_gflops", "GFLOP/s", "higher"),
    ("ml.setup_ms", "ms", "lower"),
    // fl::aggregator
    ("aggregator.fedavg_us", "us", "lower"),
    ("aggregator.screen_us", "us", "lower"),
    ("aggregator.trimmed_mean_us", "us", "lower"),
    ("aggregator.krum_us", "us", "lower"),
    ("aggregator.coord_median_us", "us", "lower"),
    // fl::trainer — shares of the traced train-round
    ("trainer.select_share", "ratio", "lower"),
    ("trainer.train_share", "ratio", "lower"),
    ("trainer.aggregate_share", "ratio", "lower"),
    ("trainer.eval_share", "ratio", "lower"),
    // fl::service (+ faults, adversary)
    ("service.round_us.clean", "us", "lower"),
    ("service.round_us.chaos", "us", "lower"),
    ("service.round_us.adversary", "us", "lower"),
    ("service.overhead_us_per_round", "us", "lower"),
    ("service.admit_ms", "ms", "lower"),
    ("service.checkpoint_roundtrip_us", "us", "lower"),
    ("service.retried_rounds", "count", "lower"),
    ("service.faults_injected", "count", "lower"),
    ("service.quarantined_updates", "count", "lower"),
    ("service.failed_rounds", "count", "lower"),
    // process
    ("process.peak_rss_mb", "MiB", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// What a traced run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    /// Replayed rounds across all workloads.
    pub attempted: usize,
    /// Replayed rounds that returned an error.
    pub failed: usize,
    /// Reasons the run is not correct (a replay that drifted, a count off its contract).
    pub faults: Vec<String>,
    /// One span file's content per workload.
    pub traces: Vec<(Kind, String)>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// [`min_time_ns`] in the `u64` nanoseconds the rest of this file counts in.
fn min_ns(warmup: usize, samples: usize, f: impl FnMut()) -> u64 {
    min_time_ns(warmup, samples, f) as u64
}

/// `f`'s value and its wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_nanos() as u64)
}

/// Median wall time of `rounds` calls of `f`.
fn median_round_ns(
    rounds: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<u64, String> {
    let mut lat = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (outcome, ns) = timed(&mut f);
        outcome?;
        lat.push(ns);
    }
    Ok(stats::median(&lat))
}

/// Measures every layer. `selected` goes first; see the module docs.
pub fn measure(selected: Kind, seed: u64, hardware_threads: usize) -> Result<Report, String> {
    let mut report = Report::default();
    let mut order = vec![selected];
    order.extend(workloads::ALL.into_iter().filter(|k| *k != selected));
    for kind in order {
        let engine = kind.engine(hardware_threads);
        let overhead = match kind {
            Kind::TrainRound => trace_train(seed, &engine, &mut report)?,
            Kind::Select1m | Kind::SelectPsi250k => trace_select(kind, seed, &engine, &mut report)?,
            Kind::FleetMixed => trace_fleet(seed, &engine, &mut report)?,
        };
        if kind == selected {
            report.set("process.peak_rss_mb", stats::peak_rss_mb());
            report.set("trace.overhead_share", overhead);
        }
    }
    probe_executor(&mut report);
    probe_ml(seed, &mut report);
    probe_aggregators(seed, &mut report)?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// select-1m / select-psi-250k
// ---------------------------------------------------------------------------

/// The scale game's parts, built with the public constructors `ScaleGame::with_selection`
/// uses (its own fields are private).
struct SelectParts {
    population: NodePopulation,
    solver: EquilibriumSolver,
    auction: Auction,
    selection_seed: u64,
}

fn scale_solver(setup: &SelectSetup, spec: &PopulationSpec) -> Result<EquilibriumSolver, String> {
    let n = setup.population;
    EquilibriumSolver::builder()
        .scoring(Additive::new(vec![0.4, 0.3, 0.3]).map_err(|e| e.to_string())?)
        .cost(LinearCost::new(vec![0.3, 0.3, 0.4]).map_err(|e| e.to_string())?)
        .theta(UniformDist::new(spec.theta_range.0, spec.theta_range.1).map_err(|e| e.to_string())?)
        .bounds(vec![(0.0, 1.0); 3])
        .population(n)
        .winners(setup.config.winners.min(n))
        .grid_size(setup.config.grid_size)
        .build()
        .map_err(|e| e.to_string())
}

impl SelectParts {
    fn build(setup: &SelectSetup) -> Result<Self, String> {
        let n = setup.population;
        let seed = setup.config.seed;
        let spec = PopulationSpec::scale_default(n, derive_seed(seed, n as u64))
            .with_version(setup.config.spec_version);
        let population = NodePopulation::new(spec).map_err(|e| e.to_string())?;
        let solver = scale_solver(setup, &spec)?;
        let auction = Auction::new(
            ScoringRule::new(Additive::new(vec![0.4, 0.3, 0.3]).map_err(|e| e.to_string())?),
            setup.config.winners.min(n),
            setup.selection,
            PricingRule::FirstPrice,
        );
        Ok(Self {
            population,
            solver,
            auction,
            selection_seed: derive_seed(seed, 0xCA1E ^ n as u64),
        })
    }
}

/// What one replayed selection round produced.
struct ReplayedSelection {
    winners: Vec<(u64, u64)>,
    refined: bool,
}

/// One streamed selection round, stage by stage on the calling thread — the stages of
/// `auction_select_streamed` without its task boxing, wave barriers and store recycling.
fn replay_select_round(
    parts: &SelectParts,
    setup: &SelectSetup,
    store: &mut BidStore,
    tracer: &mut Tracer,
) -> Result<ReplayedSelection, String> {
    let auction = &parts.auction;
    let rule = auction.scoring_rule();
    let k = auction.winners_per_round();
    let shard = setup.config.shard_size;
    let n = setup.population;
    let shards = move || (0..n).step_by(shard).map(move |lo| lo..(lo + shard).min(n));
    let mut rng = seeded_rng(parts.selection_seed);
    let fill_and_score = |range, store: &mut BidStore, t: &mut Tracer| {
        store.clear();
        t.scope("population.fill", |_| {
            parts
                .population
                .bid_range_into_store(range, 0, &parts.solver, store)
        })
        .and_then(|()| t.scope("scoring.score", |_| store.score_with(rule)))
        .map_err(|e| e.to_string())
    };
    tracer.scope("round", |t| {
        let mut selector = auction.selector(setup.config.reserve);
        let capacity = selector.capacity();
        let mut histogram = match setup.selection {
            SelectionRule::PsiFMore { .. } => Some(ScoreHistogram::new()),
            SelectionRule::TopK => None,
        };
        let mut salt = None;
        for range in shards() {
            fill_and_score(range, store, t)?;
            if let Some(histogram) = histogram.as_mut() {
                t.scope("store.histogram", |_| histogram.record_store(store));
            }
            if salt.is_none() && selector.offered() + store.len() >= 2 {
                salt = Some(selector.force_salt(&mut rng));
            }
            match salt {
                Some(salt) => {
                    let base = selector.offered();
                    let selection = t.scope("store.shard_select", |_| {
                        ShardSelection::select(store, salt, base, capacity)
                    });
                    t.scope("store.merge", |_| selector.absorb(selection));
                }
                None => selector.offer_store(store, &mut rng),
            }
        }
        let standing = t.scope("store.merge", |_| selector.finish(&mut rng));
        let mut refined = false;
        let awards = match histogram {
            None => t.scope("mechanism.award", |_| {
                auction.award_standing(&standing, k, &[], &mut rng)
            }),
            Some(histogram) => {
                let plan = t.scope("mechanism.award", |_| {
                    auction.plan_admission(standing.offered(), k, &mut rng)
                });
                let mut needed = plan.picked.clone();
                needed.extend(plan.price_rank);
                needed.sort_unstable();
                needed.dedup();
                let deepest = *needed.last().ok_or("empty admission plan")?;
                if deepest < standing.len() {
                    let pool = standing.candidates();
                    t.scope("mechanism.award", |_| {
                        let best_losing = plan.price_rank.map(|r| pool[r].score);
                        plan.picked
                            .iter()
                            .map(|&r| auction.award_candidate(&pool[r], best_losing))
                            .collect::<Vec<_>>()
                    })
                } else {
                    refined = true;
                    let salt = salt.ok_or("refinement without a salt")?;
                    let mut refiner = RankRefiner::new(&histogram, &needed, salt, rule.dims());
                    let mut base = 0;
                    for range in shards() {
                        fill_and_score(range, store, t)?;
                        t.scope("store.refine", |_| refiner.offer_store(store, base));
                        base += store.len();
                    }
                    let ranked = t.scope("store.refine", |_| refiner.into_ranked());
                    t.scope("mechanism.award", |_| {
                        let at = |rank| ranked.get(rank).ok_or("needed rank not collected");
                        let best_losing = match plan.price_rank {
                            Some(r) => Some(at(r)?.score),
                            None => None,
                        };
                        plan.picked
                            .iter()
                            .map(|&r| Ok(auction.award_candidate(at(r)?, best_losing)))
                            .collect::<Result<Vec<_>, &str>>()
                    })?
                }
            }
        };
        Ok(ReplayedSelection {
            winners: awards
                .iter()
                .map(|a| (a.node.0, a.payment.to_bits()))
                .collect(),
            refined,
        })
    })
}

/// Per-round sums of the self time of the spans called `name`, reduced to their median.
fn median_self_ns(tracer: &Tracer, name: &str) -> u64 {
    stats::median(&tracer.self_ns_per_round(name))
}

/// Traces one selection workload; returns its tracing overhead share.
fn trace_select(
    kind: Kind,
    seed: u64,
    engine: &RoundEngine,
    report: &mut Report,
) -> Result<f64, String> {
    let psi = kind == Kind::SelectPsi250k;
    let setup = select_setup(kind, seed);
    let n = setup.population as f64;
    let rounds = kind.trace_rounds();

    // The untraced program, over the same number of rounds.
    let game = ScaleGame::with_selection(setup.population, &setup.config, setup.selection)
        .map_err(|e| e.to_string())?;
    let reference_round = |engine: &RoundEngine| {
        let stage = game
            .run_streamed(engine, &setup.config)
            .map_err(|e| e.to_string())?;
        check_streamed(&stage, &setup, &mut Digest::default())?;
        let winners: Vec<(u64, u64)> = stage
            .winners
            .iter()
            .map(|w| (w.node.0, w.payment.to_bits()))
            .collect();
        Ok::<_, String>((winners, stage.peak_bid_bytes))
    };
    // Warm-up, then the median of `rounds` rounds on the given engine.
    let reference_ns = |engine: &RoundEngine| {
        median_round_ns(kind.warmup(), || reference_round(engine).map(drop))?;
        median_round_ns(rounds, || reference_round(engine).map(drop))
    };
    let (reference, peak_bid_bytes) = reference_round(engine)?;

    // The replay, interleaved round by round with the untraced program so that both see the
    // same weather.
    let parts = SelectParts::build(&setup)?;
    let mut store = BidStore::with_capacity(3, setup.config.shard_size);
    for _ in 0..kind.warmup() {
        reference_round(engine)?;
        replay_select_round(&parts, &setup, &mut store, &mut Tracer::default())?;
    }
    let mut tracer = Tracer::default();
    let mut untraced = Vec::with_capacity(rounds);
    let mut refine_rounds = 0;
    for round in 0..rounds {
        untraced.push(timed(|| reference_round(engine)).1);
        tracer.set_round(round as u32);
        report.attempted += 1;
        match replay_select_round(&parts, &setup, &mut store, &mut tracer) {
            Ok(replayed) => {
                refine_rounds += usize::from(replayed.refined);
                if replayed.winners != reference {
                    report.faults.push(format!(
                        "{}: replayed round {round} does not reproduce run_streamed's winners",
                        kind.name()
                    ));
                }
            }
            Err(e) => {
                report.failed += 1;
                report
                    .faults
                    .push(format!("{}: round {round}: {e}", kind.name()));
            }
        }
    }
    let untraced_ns = stats::median(&untraced);

    let traced_ns = stats::median(&tracer.durations("round"));
    let stage_ns = stats::median(
        &tracer
            .durations("round")
            .iter()
            .zip(tracer.self_ns_per_round("round"))
            .map(|(total, own)| total - own)
            .collect::<Vec<_>>(),
    );
    let overhead_share = 1.0 - stage_ns as f64 / untraced_ns as f64;
    if psi {
        // Every ψ round fills and scores the population twice (first pass + refinement);
        // a run in which one did not is marked incorrect below.
        report.set(
            "population.fill_v1_ns_per_bid",
            median_self_ns(&tracer, "population.fill") as f64 / (2.0 * n),
        );
        report.set(
            "store.histogram_ns_per_bid",
            median_self_ns(&tracer, "store.histogram") as f64 / n,
        );
        report.set(
            "store.refine_ns_per_bid",
            median_self_ns(&tracer, "store.refine") as f64 / n,
        );
        report.set("store.refine_rounds", refine_rounds as f64);
        if refine_rounds != rounds {
            report.faults.push(format!(
                "select-psi-250k: {refine_rounds} of {rounds} traced rounds took the refinement pass"
            ));
        }
    } else {
        report.set(
            "population.fill_v2_ns_per_bid",
            median_self_ns(&tracer, "population.fill") as f64 / n,
        );
        report.set(
            "scoring.score_ns_per_bid",
            median_self_ns(&tracer, "scoring.score") as f64 / n,
        );
        report.set(
            "store.shard_select_ns_per_bid",
            median_self_ns(&tracer, "store.shard_select") as f64 / n,
        );
        report.set(
            "store.merge_us_per_round",
            us(median_self_ns(&tracer, "store.merge")),
        );
        report.set(
            "mechanism.award_us_per_round",
            us(median_self_ns(&tracer, "mechanism.award")),
        );
        report.set("store.peak_bid_bytes", peak_bid_bytes as f64);
        report.set("engine.streamed_overhead_share", overhead_share);
        let spec = *parts.population.spec();
        let solver_ns = min_ns(0, 3, || {
            black_box(scale_solver(&setup, &spec).expect("built once already"));
        });
        report.set("equilibrium.build_ms", ms(solver_ns));
        report.set(
            "equilibrium.lookup_ns_per_bid",
            probe_lookup(&parts.solver, setup.config.shard_size)?,
        );
        // The same round on the execution substrates, whichever of them the run itself
        // uses. Informational: a pool keeps two or three threads busy, which on a 2-vCPU
        // box is the bimodal regime — read both with `hardware_threads`.
        let inline_ns = reference_ns(&RoundEngine::inline())?;
        let one_worker_ns = reference_ns(&RoundEngine::pooled(1))?;
        let two_workers_ns = reference_ns(&RoundEngine::pooled(2))?;
        report.set(
            "executor.inline_vs_pooled_ratio",
            inline_ns as f64 / one_worker_ns as f64,
        );
        report.set(
            "executor.speedup_w2",
            one_worker_ns as f64 / two_workers_ns as f64,
        );
    }
    report.traces.push((kind, tracer.to_json()));
    Ok(traced_ns as f64 / untraced_ns as f64 - 1.0)
}

/// `grid_pos_batch` + `tabulated_bid_append_at` over one shard's worth of θ values — the
/// lookup half of a v2 shard fill, which the fill span cannot show from outside.
fn probe_lookup(solver: &EquilibriumSolver, shard: usize) -> Result<f64, String> {
    let (lo, hi) = solver.theta_support();
    let thetas: Vec<f64> = (0..shard)
        .map(|j| lo + (hi - lo) * (j as f64 + 0.5) / shard as f64)
        .collect();
    let capacity = [0.5, 0.7, 0.9];
    let mut idx = vec![0.0; shard];
    let mut frac = vec![0.0; shard];
    let mut out = Vec::with_capacity(3 * shard);
    let mut failure = None;
    let ns = min_ns(3, 50, || {
        out.clear();
        if let Err(e) = solver.grid_pos_batch(&thetas, &mut idx, &mut frac) {
            failure = Some(e.to_string());
        }
        let mut asks = 0.0;
        for j in 0..shard {
            match solver.tabulated_bid_append_at(idx[j] as usize, frac[j], &capacity, &mut out) {
                Ok(ask) => asks += ask,
                Err(e) => failure = Some(e.to_string()),
            }
        }
        black_box((asks, &out));
    });
    match failure {
        Some(e) => Err(format!("equilibrium lookup probe: {e}")),
        None => Ok(ns as f64 / shard as f64),
    }
}

// ---------------------------------------------------------------------------
// train-round
// ---------------------------------------------------------------------------

/// The stages of a training round — bid and select, local training, aggregation,
/// evaluation — each called directly through the public function the trainer calls, on
/// inputs of the workload's shapes (same config, model, shard and test-set sizes). It shares
/// no state with a `FederatedTrainer` and is not required to reproduce one: its winners are
/// its own draw, only its costs are compared.
struct TrainStages {
    config: fmore_fl::FlConfig,
    rng: rand::rngs::StdRng,
    train: Arc<fmore_ml::dataset::Dataset>,
    test: fmore_ml::dataset::Dataset,
    test_indices: Vec<usize>,
    clients: Vec<EdgeClient>,
    global: Sequential,
    solver: EquilibriumSolver,
    auction: Auction,
    round: u64,
    /// One reusable training slot per winner.
    slots: Vec<SlotState>,
    eval_arena: ScratchArena,
    avg: Vec<f64>,
    scratch: AggregationScratch,
}

impl TrainStages {
    fn build(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let config = train_config();
        let auction_config = AuctionSelectionConfig::default();
        let mut rng = seeded_rng(seed);
        let spec = image_spec_for(config.task);
        let (train, test) = tracer.scope("ml.dataset", |_| {
            let train = spec.generate(config.train_samples, &mut rng);
            let test = spec.generate(config.test_samples, &mut rng);
            (train, test)
        });
        let shards = tracer.scope("ml.partition", |_| {
            partition_non_iid(&train, &config.partition, &mut rng)
        });
        let theta = UniformDist::new(config.theta_range.0, config.theta_range.1)
            .map_err(|e| e.to_string())?;
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let t = theta.sample(&mut rng);
                EdgeClient::new(NodeId(i as u64), shard, t, derive_seed(seed, i as u64 + 1))
            })
            .collect();
        let global = tracer.scope("ml.model_init", |_| {
            models::model_for_task(config.task, &mut rng)
        });
        let scoring = CobbDouglas::with_scale(
            auction_config.scoring_scale,
            auction_config.scoring_exponents.clone(),
        )
        .map_err(|e| e.to_string())?;
        let solver = EquilibriumSolver::builder()
            .scoring(scoring.clone())
            .cost(
                LinearCost::new(auction_config.cost_coefficients.clone())
                    .map_err(|e| e.to_string())?,
            )
            .theta(theta)
            .bounds(vec![(0.0, 1.0); auction_config.dims()])
            .population(config.clients)
            .winners(config.winners_per_round)
            .grid_size(128)
            .build()
            .map_err(|e| e.to_string())?;
        let auction = Auction::new(
            ScoringRule::new(scoring),
            config.winners_per_round,
            auction_config.selection,
            auction_config.pricing,
        );
        let slots = (0..config.winners_per_round)
            .map(|_| SlotState::new(global.clone()))
            .collect();
        Ok(Self {
            test_indices: (0..test.len()).collect(),
            config,
            rng,
            train: Arc::new(train),
            test,
            clients,
            global,
            solver,
            auction,
            round: 0,
            slots,
            eval_arena: ScratchArena::new(),
            avg: Vec::new(),
            scratch: AggregationScratch::new(),
        })
    }

    /// One round, stage by stage: refresh → bid → auction → local training → FedAvg →
    /// evaluation, a span around each.
    fn round(&mut self, engine: &RoundEngine, tracer: &mut Tracer) -> Result<(), String> {
        tracer.scope("round", |t| {
            let max_data = self.config.partition.size_range.1 as f64;
            let winners = t.scope("trainer.select", |t| {
                for client in &mut self.clients {
                    client.refresh_availability(self.config.availability, &self.train);
                }
                let bids = collect_bids(
                    &self.clients,
                    &self.solver,
                    max_data,
                    self.train.num_classes(),
                )
                .map_err(|e| e.to_string())?;
                let clients = &self.clients;
                let (rng, auction) = (&mut self.rng, &self.auction);
                t.scope("mechanism.dense_run", |_| {
                    auction_select(auction, bids, rng, |award| {
                        let index = award.node.0 as usize;
                        WinnerInfo {
                            client: index,
                            node: award.node,
                            data_size: clients[index].data_size().max(1),
                            categories: clients[index].categories(),
                            score: award.score,
                            payment: award.payment,
                        }
                    })
                })
                .map(|(winners, _scores)| winners)
                .map_err(|e| e.to_string())
            })?;

            self.round += 1;
            let updates = t.scope("trainer.train", |t| {
                let global_params = Arc::new(self.global.parameters());
                let jobs: Vec<TrainingJob> = winners
                    .iter()
                    .enumerate()
                    .map(|(slot, winner)| {
                        let mut state = self.slots.pop().expect("a slot per winner");
                        self.clients[winner.client]
                            .draw_training_subset_into(winner.data_size, &mut state.indices);
                        TrainingJob {
                            slot,
                            client: winner.client,
                            state,
                            global_params: Arc::clone(&global_params),
                            data: Arc::clone(&self.train),
                            epochs: self.config.local_epochs,
                            learning_rate: self.config.learning_rate,
                            batch_size: self.config.batch_size,
                            seed: derive_seed(self.round, winner.client as u64),
                        }
                    })
                    .collect();
                let results = t
                    .scope("engine.train_fanout", |_| local_training(engine, jobs))
                    .map_err(|e| e.to_string())?;
                let mut updates = Vec::with_capacity(results.len());
                for (update, state) in results {
                    self.slots.push(state);
                    updates.push(update);
                }
                Ok::<_, String>(updates)
            })?;

            t.scope("trainer.aggregate", |t| {
                t.scope("aggregator.fedavg", |_| {
                    aggregate_with_rule(&FedAvg, &updates, &mut self.scratch, &mut self.avg)
                })
                .map_err(|e| e.to_string())?;
                self.global.set_parameters(&self.avg);
                // Hand each update's buffer back to a slot, as the trainer does.
                for (state, update) in self.slots.iter_mut().zip(updates) {
                    state.params = update.parameters;
                }
                Ok::<_, String>(())
            })?;

            let eval = t.scope("trainer.eval", |t| {
                t.scope("ml.eval", |_| {
                    self.global
                        .evaluate_in(&mut self.eval_arena, &self.test, &self.test_indices)
                })
            });
            if eval.loss.is_finite() {
                Ok(())
            } else {
                Err(format!("staged round diverged: loss {}", eval.loss))
            }
        })
    }
}

/// Traces `train-round`; returns its tracing overhead share.
fn trace_train(seed: u64, engine: &RoundEngine, report: &mut Report) -> Result<f64, String> {
    let kind = Kind::TrainRound;
    let rounds = kind.trace_rounds();
    // One trainer is enough to see where a round's time goes: the sequence's first.
    let seed = workloads::trainer_seed(seed, 0);

    // The untraced program.
    let mut trainer = FederatedTrainer::with_engine(
        train_config(),
        SelectionStrategy::fmore(),
        seed,
        engine.clone(),
    )
    .map_err(|e| e.to_string())?;
    let mut scrap = Digest::default();
    let mut run_reference = || {
        let metrics = trainer.run_round().map_err(|e| e.to_string())?;
        workloads::fold_round_metrics(&metrics, &mut scrap);
        Ok::<_, String>(())
    };

    // The staged round, interleaved round by round with the untraced program so that both
    // see the same weather.
    let mut setup_tracer = Tracer::default();
    let mut stages = TrainStages::build(seed, &mut setup_tracer)?;
    let setup_ns: u64 = ["ml.dataset", "ml.partition", "ml.model_init"]
        .iter()
        .flat_map(|name| setup_tracer.durations(name))
        .sum();
    for _ in 0..workloads::TRAINER_WARMUP {
        run_reference()?;
        stages.round(engine, &mut Tracer::default())?;
    }
    let mut tracer = Tracer::default();
    let mut untraced = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (outcome, ns) = timed(&mut run_reference);
        outcome?;
        untraced.push(ns);
        tracer.set_round(round as u32);
        report.attempted += 1;
        if let Err(e) = stages.round(engine, &mut tracer) {
            report.failed += 1;
            report
                .faults
                .push(format!("train-round: round {round}: {e}"));
        }
    }
    let untraced_ns = stats::median(&untraced);

    report.set("ml.setup_ms", ms(setup_ns));
    report.set(
        "engine.train_fanout_ms",
        ms(stats::median(&tracer.durations("engine.train_fanout"))),
    );
    report.set(
        "ml.eval_ms",
        ms(stats::median(&tracer.durations("ml.eval"))),
    );
    report.set(
        "aggregator.fedavg_us",
        us(stats::median(&tracer.durations("aggregator.fedavg"))),
    );
    report.set(
        "mechanism.dense_run_us",
        us(stats::median(&tracer.durations("mechanism.dense_run"))),
    );
    // Each stage's median time as a share of the untraced program's median round: what is
    // left of 1 is the trainer's own bookkeeping between the stages.
    for (metric, span) in [
        ("trainer.select_share", "trainer.select"),
        ("trainer.train_share", "trainer.train"),
        ("trainer.aggregate_share", "trainer.aggregate"),
        ("trainer.eval_share", "trainer.eval"),
    ] {
        let stage_ns = stats::median(&tracer.durations(span));
        report.set(metric, stage_ns as f64 / untraced_ns as f64);
    }
    let traced_ns = stats::median(&tracer.durations("round"));
    report.traces.push((kind, tracer.to_json()));
    Ok(traced_ns as f64 / untraced_ns as f64 - 1.0)
}

// ---------------------------------------------------------------------------
// fleet-mixed
// ---------------------------------------------------------------------------

/// The span — and per-layer metric — a tenant class's rounds are recorded under.
fn class_metric(class: TenantClass) -> &'static str {
    match class {
        TenantClass::Clean => "service.round_us.clean",
        TenantClass::Chaos => "service.round_us.chaos",
        TenantClass::Adversary => "service.round_us.adversary",
    }
}

/// Median of each tenant's rounds, from round times in round-robin order.
fn tenant_medians(lat: &[u64]) -> Vec<u64> {
    (0..FLEET_TENANTS)
        .map(|slot| {
            let own: Vec<u64> = lat
                .iter()
                .skip(slot)
                .step_by(FLEET_TENANTS)
                .copied()
                .collect();
            stats::median(&own)
        })
        .collect()
}

/// The selection a clean tenant's round performs, without the service around it: the same
/// `auction_select_streamed` call on the same spec, RNG and bid source.
fn bare_select(spec: &JobSpec, round: u64, engine: &RoundEngine) -> Result<(), String> {
    let source = Arc::clone(&spec.source);
    let fill = Arc::new(move |range: std::ops::Range<usize>, store: &mut BidStore| {
        source(range, round, store)
    });
    auction_select_streamed(
        &spec.auction,
        spec.population,
        spec.shard_size,
        spec.reserve,
        engine,
        fill,
        &mut seeded_rng(derive_seed(spec.seed, round)),
        |award| WinnerInfo {
            client: award.node.0 as usize,
            node: award.node,
            data_size: 1,
            categories: 1,
            score: award.score,
            payment: award.payment,
        },
    )
    .map(|stage| {
        black_box(stage);
    })
    .map_err(|e| e.to_string())
}

/// Traces `fleet-mixed`; returns its tracing overhead share. The service's round is one
/// call from outside, so the spans are whole rounds, named by tenant class.
fn trace_fleet(seed: u64, engine: &RoundEngine, report: &mut Report) -> Result<f64, String> {
    let kind = Kind::FleetMixed;
    let rounds = kind.trace_rounds();
    let warmup_per_tenant = (kind.warmup() / FLEET_TENANTS) as u64;
    let rounds_per_tenant = rounds / FLEET_TENANTS;

    // The untraced program and its traced twin (same specs, same rounds), interleaved round
    // by round so that both see the same weather.
    let mut reference = FleetMixed::build(seed, engine)?;
    let mut tracer = Tracer::default();
    let (specs, mut fleet) = tracer.scope("service.admit", |_| {
        let specs = fleet_specs(seed)?;
        let fleet = FleetMixed::admit(specs.clone(), engine)?;
        Ok::<_, String>((specs, fleet))
    })?;
    let mut scrap = Digest::default();
    for _ in 0..kind.warmup() {
        reference.round(engine, &mut scrap)?;
        fleet.round(engine, &mut scrap)?;
    }
    let mut untraced = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // A failed round is still a round; failures are counted from the histories below.
        untraced.push(timed(|| reference.round(engine, &mut scrap)).1);
        tracer.set_round(round as u32);
        report.attempted += 1;
        let slot = fleet.next_slot();
        let outcome = tracer.scope(class_metric(tenant_class(slot)), |_| {
            fleet.round(engine, &mut scrap)
        });
        if let Err(e) = outcome {
            report.failed += 1;
            report
                .faults
                .push(format!("fleet-mixed: round {round}: {e}"));
        }
    }
    let mut reference_digest = Digest::default();
    reference.finish(&mut reference_digest)?;

    let traced: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("service.round_us."))
        .map(|s| s.duration_ns())
        .collect();
    let traced_medians = tenant_medians(&traced);

    // service.overhead_us_per_round: clean-tenant round − bare selection, same specs and
    // round numbers, averaged over the four clean tenants.
    let clean: Vec<usize> = (0..FLEET_TENANTS)
        .filter(|&slot| tenant_class(slot) == TenantClass::Clean)
        .collect();
    let mut overhead_ns = 0.0;
    for &slot in &clean {
        let mut round = warmup_per_tenant;
        let bare_ns = median_round_ns(rounds_per_tenant, || {
            round += 1;
            bare_select(&specs[slot], round, engine)
        })?;
        overhead_ns += traced_medians[slot] as f64 - bare_ns as f64;
    }
    report.set(
        "service.overhead_us_per_round",
        overhead_ns / clean.len() as f64 / 1e3,
    );

    // service.checkpoint_roundtrip_us, on the last adversary tenant (its checkpoint carries
    // a reputation ledger as well as the history).
    let last = FLEET_TENANTS - 1;
    let spare = AuctionService::with_engine(ServiceConfig::default(), engine.clone());
    let mut failure = None;
    let roundtrip_ns = min_ns(2, 20, || {
        let restored = fleet
            .service
            .checkpoint(fleet.ids[last])
            .map(|checkpoint| checkpoint.to_bytes())
            .and_then(|bytes| JobCheckpoint::from_bytes(&bytes))
            .and_then(|checkpoint| spare.restore(specs[last].clone(), checkpoint));
        match restored {
            Ok(id) => drop(spare.close(id)),
            Err(e) => failure = Some(e.to_string()),
        }
    });
    if let Some(e) = failure {
        report
            .faults
            .push(format!("fleet-mixed: checkpoint round trip: {e}"));
    }
    report.set("service.checkpoint_roundtrip_us", us(roundtrip_ns));

    for class in [
        TenantClass::Clean,
        TenantClass::Chaos,
        TenantClass::Adversary,
    ] {
        let name = class_metric(class);
        report.set(name, us(stats::median(&tracer.durations(name))));
    }
    report.set(
        "service.admit_ms",
        ms(stats::median(&tracer.durations("service.admit"))),
    );

    // Exact counts, from the histories of the traced service (warm-up included).
    let (mut retried, mut injected, mut quarantined, mut failed) = (0, 0, 0, 0);
    let mut digest = Digest::default();
    for &id in &fleet.ids {
        let history = fleet.service.close(id).map_err(|e| e.to_string())?;
        for record in &history.rounds {
            retried += usize::from(record.attempts > 1);
            injected += record.faults.len();
            match &record.outcome {
                Ok(summary) => quarantined += summary.quarantined,
                Err(_) => failed += 1,
            }
        }
        digest.eat(history.fingerprint());
    }
    report.set("service.retried_rounds", retried as f64);
    report.set("service.faults_injected", injected as f64);
    report.set("service.quarantined_updates", quarantined as f64);
    report.set("service.failed_rounds", failed as f64);
    if failed != 0 {
        report
            .faults
            .push(format!("fleet-mixed: {failed} failed rounds"));
    }
    if digest != reference_digest {
        report.faults.push(
            "fleet-mixed: the traced service's histories differ from the untraced service's".into(),
        );
    }

    // Per-tenant medians, summed: one median over the three-class mixture would sit on a
    // class boundary, and a total is at the mercy of a single preempted round.
    let untraced_ns: u64 = tenant_medians(&untraced).iter().sum();
    let traced_ns: u64 = traced_medians.iter().sum();
    report.traces.push((kind, tracer.to_json()));
    Ok(traced_ns as f64 / untraced_ns as f64 - 1.0)
}

// ---------------------------------------------------------------------------
// Direct probes
// ---------------------------------------------------------------------------

/// `WorkerPool::run_indexed` with no-op tasks, in batches the size of a fleet tenant's
/// winner fan-out, on the narrowest real pool (one worker + the submitter): pure dispatch
/// cost. Also reports that pool's stall wake-ups.
fn probe_executor(report: &mut Report) {
    const TASKS: usize = 4_096;
    const BATCH: usize = 16;
    let pool = WorkerPool::new(1);
    let ns = min_ns(1, 5, || {
        for _ in 0..TASKS / BATCH {
            let tasks: Vec<Task<usize>> = (0..BATCH)
                .map(|i| Box::new(move || i) as Task<usize>)
                .collect();
            black_box(pool.run_indexed(tasks));
        }
    });
    report.set("executor.dispatch_us_per_task", us(ns) / TASKS as f64);
    report.set("executor.stall_wakeups", pool.stall_wakeups() as f64);
}

/// One epoch of `Sequential::train_epoch_in` on the workload's model, and
/// `Matrix::matmul_into` on the shapes of its two dense layers.
fn probe_ml(seed: u64, report: &mut Report) {
    const SAMPLES: usize = 1_000;
    let config = train_config();
    let spec = image_spec_for(config.task);
    let mut rng = seeded_rng(seed);
    let data = spec.generate(SAMPLES, &mut rng);
    let mut model = models::model_for_task(config.task, &mut rng);
    let indices: Vec<usize> = (0..SAMPLES).collect();
    let mut arena = ScratchArena::new();
    let ns = min_ns(1, 5, || {
        black_box(model.train_epoch_in(
            &mut arena,
            &data,
            &indices,
            config.learning_rate,
            config.batch_size,
            &mut rng,
        ));
    });
    report.set("ml.train_us_per_sample", us(ns) / SAMPLES as f64);

    // The CNN's dense layers: (batch × flat) · (flat × 64) and (batch × 64) · (64 × classes).
    let conv1 = Conv2d::new(
        ImageShape::new(spec.channels, spec.height, spec.width),
        8,
        3,
        &mut rng,
    );
    let conv2 = Conv2d::new(conv1.output_shape(), 16, 3, &mut rng);
    let flat = MaxPool2d::new(conv2.output_shape())
        .output_shape()
        .flat_len();
    let shapes = [
        (config.batch_size, flat, 64),
        (config.batch_size, 64, spec.num_classes),
    ];
    const REPS: usize = 2_000;
    let mut flops = 0.0;
    let mut total_ns = 0;
    for (m, k, n) in shapes {
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let mut out = Matrix::zeros(m, n);
        total_ns += min_ns(1, 5, || {
            for _ in 0..REPS {
                black_box(&a).matmul_into(black_box(&b), &mut out);
            }
            black_box(&out);
        });
        flops += (2 * m * k * n * REPS) as f64;
    }
    report.set("ml.matmul_gflops", flops / total_ns as f64);
}

/// The robust aggregation rules on a fleet-shaped batch: 16 updates × 1 024 parameters.
fn probe_aggregators(seed: u64, report: &mut Report) -> Result<(), String> {
    const MEMBERS: u64 = 16;
    const DIM: u64 = 1_024;
    let updates: Vec<Vec<f64>> = (0..MEMBERS)
        .map(|member| {
            let base = derive_seed(seed, member + 1);
            (0..DIM)
                .map(|d| {
                    let word = derive_seed(base, d + 1);
                    (word >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                })
                .collect()
        })
        .collect();
    let batch: Vec<(&[f64], f64)> = updates.iter().map(|u| (u.as_slice(), 1.0)).collect();
    let rules: [(&'static str, Box<dyn AggregationRule>); 4] = [
        (
            "aggregator.screen_us",
            Box::new(MedianNormScreen(ScreenPolicy::default())),
        ),
        ("aggregator.trimmed_mean_us", Box::new(TrimmedMean::new(2))),
        ("aggregator.krum_us", Box::new(Krum::new(2))),
        (
            "aggregator.coord_median_us",
            Box::new(CoordinateMedian::default()),
        ),
    ];
    let mut scratch = AggregationScratch::new();
    let mut out = Vec::new();
    for (name, rule) in rules {
        let mut failure = None;
        let ns = min_ns(3, 200, || {
            if let Err(e) = rule.aggregate_with(&batch, &mut out, &mut scratch) {
                failure = Some(e.to_string());
            }
            black_box(&out);
        });
        if let Some(e) = failure {
            return Err(format!("{name}: {e}"));
        }
        report.set(name, us(ns));
    }
    Ok(())
}
