//! Determinism guarantees of the round engine: for every selection scheme, the same seed
//! produces a bit-identical `TrainingHistory` across repeated runs — and across execution
//! substrates (inline, 1-thread pool, N-thread pool).
//!
//! This is the contract the pooled engine was built around: results are collected into
//! pre-sized slots indexed by submission order and every training job owns a seed derived
//! from `(run seed, round, client)`, so thread scheduling can never leak into the output.

use fmore::fl::config::FlConfig;
use fmore::fl::engine::{RoundEngine, Task, WorkerPool};
use fmore::fl::metrics::TrainingHistory;
use fmore::fl::selection::SelectionStrategy;
use fmore::fl::trainer::FederatedTrainer;
use fmore::mec::cluster::{ClusterConfig, ClusterStrategy, MecCluster};
use fmore::mec::dynamics::{ChurnModel, DynamicsConfig};
use fmore::ml::dataset::TaskKind;
use fmore::sim::{ClusterScenarioSpec, ScenarioRunner, ScenarioSpec};

const ROUNDS: usize = 3;
const SEED: u64 = 2024;

fn strategies() -> Vec<(&'static str, SelectionStrategy)> {
    vec![
        ("RandFL", SelectionStrategy::random()),
        ("FixFL", SelectionStrategy::fixed_first(4)),
        ("FMore", SelectionStrategy::fmore()),
        ("psi-FMore", SelectionStrategy::psi_fmore(0.6)),
    ]
}

fn history_with(strategy: SelectionStrategy, engine: RoundEngine, seed: u64) -> TrainingHistory {
    let mut trainer = FederatedTrainer::with_engine(
        FlConfig::fast_test(TaskKind::MnistO),
        strategy,
        seed,
        engine,
    )
    .expect("fast config is valid");
    trainer.run(ROUNDS).expect("training runs")
}

/// Same seed ⇒ bit-identical history on repeated runs; different seed ⇒ different history.
#[test]
fn repeated_runs_are_bit_identical_per_scheme() {
    for (name, strategy) in strategies() {
        let a = history_with(strategy.clone(), RoundEngine::default(), SEED);
        let b = history_with(strategy.clone(), RoundEngine::default(), SEED);
        assert_eq!(
            a, b,
            "{name}: same seed must reproduce the identical history"
        );
        let c = history_with(strategy, RoundEngine::default(), SEED + 1);
        assert_ne!(a, c, "{name}: a different seed must change the history");
    }
}

/// A 1-thread pool and an N-thread pool produce bit-identical histories for every scheme —
/// worker count is a pure wall-clock knob.
#[test]
fn pool_size_one_and_n_agree_per_scheme() {
    for (name, strategy) in strategies() {
        let one = history_with(strategy.clone(), RoundEngine::pooled(1), SEED);
        let many = history_with(strategy.clone(), RoundEngine::pooled(4), SEED);
        assert_eq!(one, many, "{name}: pool size must not affect results");
    }
}

/// Both execution modes agree: inline and pooled.
#[test]
fn every_execution_mode_agrees_per_scheme() {
    for (name, strategy) in strategies() {
        let inline = history_with(strategy.clone(), RoundEngine::inline(), SEED);
        let pooled = history_with(strategy.clone(), RoundEngine::pooled(3), SEED);
        assert_eq!(inline, pooled, "{name}: pooled must match inline");
    }
}

/// The scenario runner inherits the guarantee: running specs through differently sized
/// runner pools — and in parallel vs sequentially — changes nothing.
#[test]
fn scenario_runner_is_deterministic_across_pool_sizes() {
    let specs: Vec<ScenarioSpec> = strategies()
        .into_iter()
        .map(|(name, strategy)| {
            ScenarioSpec::new(
                name,
                FlConfig::fast_test(TaskKind::MnistO),
                strategy,
                ROUNDS,
                SEED,
            )
        })
        .collect();
    let one = ScenarioRunner::with_threads(1).run_all(&specs).unwrap();
    let many = ScenarioRunner::with_threads(4).run_all(&specs).unwrap();
    assert_eq!(one, many);
    let sequential: Vec<_> = specs
        .iter()
        .map(|s| ScenarioRunner::with_threads(2).run(s).unwrap())
        .collect();
    assert_eq!(one, sequential);
}

/// The MEC cluster — which funnels its auction through the same engine — is deterministic
/// across engine substrates too.
#[test]
fn cluster_is_deterministic_across_engines() {
    let run = |engine: RoundEngine| {
        let mut cluster = MecCluster::with_engine(
            ClusterConfig::fast_test(),
            ClusterStrategy::FMore,
            SEED,
            engine,
        )
        .expect("fast cluster config is valid");
        cluster.run(ROUNDS).expect("cluster runs")
    };
    let inline = run(RoundEngine::inline());
    assert_eq!(inline, run(RoundEngine::pooled(1)));
    assert_eq!(inline, run(RoundEngine::pooled(4)));
}

/// The churn-capable cluster inherits the full guarantee: dropouts, stragglers, deadline
/// misses, and re-auction waves are drawn on the control thread, so a dynamic run is
/// bit-identical across inline and 1-vs-N-thread pooled execution — for
/// both schemes.
#[test]
fn dynamic_cluster_is_deterministic_across_engines() {
    let dynamics = DynamicsConfig::new(
        ChurnModel::edge_default()
            .with_dropout(0.3)
            .with_stragglers(0.3, 5.0),
    )
    .with_deadline(70.0);
    for strategy in [ClusterStrategy::FMore, ClusterStrategy::RandFL] {
        let run = |engine: RoundEngine| {
            let config = ClusterConfig::fast_test().with_dynamics(dynamics);
            let mut cluster = MecCluster::with_engine(config, strategy, SEED, engine)
                .expect("dynamic cluster config is valid");
            cluster.run(ROUNDS).expect("dynamic cluster runs")
        };
        let inline = run(RoundEngine::inline());
        assert_eq!(inline, run(RoundEngine::pooled(1)), "{strategy:?}");
        assert_eq!(inline, run(RoundEngine::pooled(4)), "{strategy:?}");
        // Churn actually fired — the guarantee is not vacuous.
        assert!(
            inline.total_dropouts() + inline.total_stragglers() > 0,
            "{strategy:?}: churn model produced no events"
        );
    }
}

/// The registry-facing path of the acceptance gate: a dropout-sweep scenario pair runs
/// bit-identically through 1-thread and N-thread scenario runners.
#[test]
fn dropout_sweep_scenarios_agree_across_runner_pool_sizes() {
    let dynamics = DynamicsConfig::new(ChurnModel::stable().with_dropout(0.5)).with_deadline(60.0);
    let specs: Vec<ClusterScenarioSpec> = [ClusterStrategy::FMore, ClusterStrategy::RandFL]
        .into_iter()
        .map(|strategy| {
            ClusterScenarioSpec::new(
                strategy.name(),
                ClusterConfig::fast_test(),
                strategy,
                ROUNDS,
                SEED,
            )
            .with_dynamics(dynamics)
        })
        .collect();
    let one = ScenarioRunner::with_threads(1)
        .run_clusters(&specs)
        .unwrap();
    let many = ScenarioRunner::with_threads(4)
        .run_clusters(&specs)
        .unwrap();
    assert_eq!(one, many);
    let sequential: Vec<_> = specs
        .iter()
        .map(|s| ScenarioRunner::with_threads(2).run_cluster(s).unwrap())
        .collect();
    assert_eq!(one, sequential);
}

// ---------------------------------------------------------------------------
// WorkerPool stress: churn-sized fan-outs and panic recovery.
// ---------------------------------------------------------------------------

/// A churn-sized fan-out (hundreds of tasks, uneven durations) returns bit-identical results
/// across 1/2/N-thread pools and inline execution.
#[test]
fn churn_sized_fanout_is_deterministic_across_thread_counts() {
    let make_tasks = || -> Vec<Task<u64>> {
        (0..512u64)
            .map(|i| {
                Box::new(move || {
                    // Seeded per-task computation with uneven cost, like a round whose
                    // stragglers run long.
                    let mut rng = fmore::numerics::seeded_rng(i);
                    let spins = 1 + (i % 17) as usize * 50;
                    let mut acc = 0u64;
                    for _ in 0..spins {
                        acc = acc
                            .wrapping_add(rand::Rng::gen::<u64>(&mut rng))
                            .rotate_left(7);
                    }
                    acc
                }) as Task<u64>
            })
            .collect()
    };
    let inline: Vec<u64> = make_tasks().into_iter().map(|t| t()).collect();
    for threads in [1usize, 2, 8] {
        let pool = WorkerPool::new(threads);
        assert_eq!(
            pool.run_indexed(make_tasks()),
            inline,
            "{threads}-thread pool diverged from inline"
        );
        // A second wave on the same pool stays correct (no leftover state).
        assert_eq!(pool.run_indexed(make_tasks()), inline);
    }
}

/// A panicking task propagates to the submitter but must not kill the worker: the pool keeps
/// its full capacity and stays deterministic for subsequent churn-sized waves.
#[test]
fn pool_recovers_from_panicking_tasks_under_load() {
    let pool = WorkerPool::new(4);
    for wave in 0..3 {
        // Wave with one poisoned task among many.
        let mut tasks: Vec<Task<usize>> = (0..128usize)
            .map(|i| Box::new(move || i * 3) as Task<usize>)
            .collect();
        tasks[64] = Box::new(|| panic!("poisoned task"));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_indexed(tasks)));
        assert!(
            result.is_err(),
            "wave {wave}: the panic must reach the submitter"
        );

        // The pool is still fully usable and ordered afterwards.
        let clean: Vec<Task<usize>> = (0..256usize)
            .map(|i| Box::new(move || i + wave) as Task<usize>)
            .collect();
        assert_eq!(
            pool.run_indexed(clean),
            (0..256).map(|i| i + wave).collect::<Vec<_>>(),
            "wave {wave}: pool lost capacity or ordering after a panic"
        );
    }
}

/// The per-slot panic markers of `run_indexed_checked` distinguish "this worker's job
/// died" from "this job produced an empty result": healthy slots still deliver (including
/// genuinely empty values), the panicked slot carries its index and message, and the pool
/// keeps full capacity for the next wave. Before the markers existed, a panicked job was
/// indistinguishable from a missing result until the whole wave's panic propagated.
#[test]
fn panic_markers_distinguish_dead_jobs_from_empty_results() {
    let pool = WorkerPool::new(4);
    let mut tasks: Vec<Task<Vec<u64>>> = (0..64usize)
        .map(|i| {
            Box::new(move || {
                if i % 2 == 0 {
                    Vec::new() // a legitimately empty result
                } else {
                    vec![i as u64]
                }
            }) as Task<Vec<u64>>
        })
        .collect();
    tasks[13] = Box::new(|| panic!("churned mid-round"));
    let results = pool.run_indexed_checked(tasks);
    assert_eq!(results.len(), 64);
    for (i, result) in results.iter().enumerate() {
        match result {
            Err(marker) => {
                assert_eq!(i, 13, "only slot 13 was poisoned");
                assert_eq!(marker.slot, 13);
                assert!(marker.message.contains("churned mid-round"));
            }
            Ok(value) if i % 2 == 0 => {
                assert!(value.is_empty(), "slot {i} should be empty-but-alive");
            }
            Ok(value) => assert_eq!(value, &vec![i as u64]),
        }
    }
    // Full capacity afterwards: a clean churn-sized wave delivers in order.
    let clean: Vec<Task<usize>> = (0..256usize)
        .map(|i| Box::new(move || i) as Task<usize>)
        .collect();
    let values: Vec<usize> = pool
        .run_indexed_checked(clean)
        .into_iter()
        .map(|r| r.expect("clean wave has no panics"))
        .collect();
    assert_eq!(values, (0..256).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Slot-state reuse: scratch arenas must not bleed between rounds.
// ---------------------------------------------------------------------------

/// Reusing per-slot training state (model instances + scratch arenas) across consecutive
/// `run_round` calls on the same pool is bit-identical to paying the warm-up again with
/// fresh state every round — and to a second trainer running on its own fresh pool. Any
/// scratch value leaking from round N into round N+1 would break this equality.
#[test]
fn arena_reuse_does_not_bleed_between_rounds() {
    for (name, strategy) in strategies() {
        // Reference: slots reused across all rounds on a shared pool.
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let mut reused = FederatedTrainer::with_engine(
            FlConfig::fast_test(TaskKind::MnistO),
            strategy.clone(),
            SEED,
            RoundEngine::with_pool(std::sync::Arc::clone(&pool)),
        )
        .expect("fast config is valid");
        let reference: Vec<_> = (0..ROUNDS)
            .map(|_| reused.run_round().expect("round runs"))
            .collect();

        // Same pool, but per-slot scratch state dropped between every round.
        let mut cleared = FederatedTrainer::with_engine(
            FlConfig::fast_test(TaskKind::MnistO),
            strategy.clone(),
            SEED,
            RoundEngine::with_pool(pool),
        )
        .expect("fast config is valid");
        for (round, expected) in reference.iter().enumerate() {
            let metrics = cleared.run_round().expect("round runs");
            assert_eq!(
                &metrics, expected,
                "{name}: round {round} diverged when slot state was cleared between rounds"
            );
            cleared.clear_slot_state();
        }

        // A fresh trainer on a fresh pool agrees too.
        let fresh = history_with(strategy, RoundEngine::pooled(2), SEED);
        assert_eq!(
            fresh.rounds, reference,
            "{name}: fresh-pool run diverged from the slot-reusing run"
        );
    }
}

// ---------------------------------------------------------------------------
// Population-scale streaming: sharding and pool width must not exist in the output.
// ---------------------------------------------------------------------------

/// A streamed population selection round is bit-identical across shard counts (1 / 2 / 8
/// shards) and execution substrates (inline, 1-thread, 8-thread pools): tie-break keys
/// depend only on a bid's global stream position, and shards are merged into the bounded
/// selector in population order regardless of which worker scored them.
#[test]
fn streamed_selection_is_identical_across_shard_counts_and_pools() {
    use fmore::sim::experiments::scale::{ScaleConfig, ScaleGame};
    let n = 3_000usize;
    let base = ScaleConfig {
        populations: vec![n],
        winners: 32,
        shard_size: n, // one shard
        reserve: 32,
        parity_limit: n,
        grid_size: 48,
        seed: 99,
        timed: false,
        spec_version: fmore::mec::population::SpecVersion::V1,
    };

    let reference = {
        let game = ScaleGame::new(n, &base).expect("game builds");
        game.run_streamed(&RoundEngine::inline(), &base)
            .expect("round runs")
    };
    assert_eq!(reference.winners.len(), 32);

    for shards in [1usize, 2, 8] {
        let config = ScaleConfig {
            shard_size: n.div_ceil(shards),
            ..base.clone()
        };
        for engine in [
            RoundEngine::inline(),
            RoundEngine::pooled(1),
            RoundEngine::pooled(8),
        ] {
            let game = ScaleGame::new(n, &config).expect("game builds");
            let stage = game.run_streamed(&engine, &config).expect("round runs");
            assert_eq!(
                reference.winners,
                stage.winners,
                "{shards} shards on {:?} changed the winner set",
                engine.mode()
            );
            assert_eq!(
                reference.standing.candidates(),
                stage.standing.candidates(),
                "{shards} shards on {:?} changed the standing pool",
                engine.mode()
            );
        }
    }
}

/// Executor width is a pure wall-clock knob across the whole selection-and-payment
/// surface: under active work stealing (many shards in flight, skew-free ranges split and
/// stolen between workers), winner sets, standing pools, and the cluster's payment
/// ledgers are bit-identical across 1/2/8-worker pools.
#[test]
fn winners_pools_and_ledgers_agree_across_executor_widths() {
    use fmore::sim::experiments::scale::{ScaleConfig, ScaleGame};
    // Streamed population selection: small shards so every width runs many waves and the
    // per-shard local selections land on different workers run to run.
    let n = 4_000usize;
    let config = ScaleConfig {
        populations: vec![n],
        winners: 24,
        shard_size: 256,
        reserve: 24,
        parity_limit: n,
        grid_size: 48,
        seed: 1_234,
        timed: false,
        spec_version: fmore::mec::population::SpecVersion::V1,
    };
    let game = ScaleGame::new(n, &config).expect("game builds");
    let reference = game
        .run_streamed(&RoundEngine::pooled(1), &config)
        .expect("round runs");
    assert_eq!(reference.winners.len(), 24);
    for width in [2usize, 8] {
        let stage = game
            .run_streamed(&RoundEngine::pooled(width), &config)
            .expect("round runs");
        assert_eq!(
            reference.winners, stage.winners,
            "width {width} changed the winner set"
        );
        assert_eq!(
            reference.standing.candidates(),
            stage.standing.candidates(),
            "width {width} changed the standing pool"
        );
        assert_eq!(reference.offered, stage.offered);
    }

    // Cluster payment accounting: the ledger accumulated over a full run is identical
    // across widths (training jobs, auction, and payments all ride the same executor).
    let run = |width: usize| {
        let mut cluster = MecCluster::with_engine(
            ClusterConfig::fast_test(),
            ClusterStrategy::FMore,
            SEED,
            RoundEngine::pooled(width),
        )
        .expect("fast cluster config is valid");
        let history = cluster.run(ROUNDS).expect("cluster runs");
        (history, cluster.ledger().clone())
    };
    let (history_1, ledger_1) = run(1);
    for width in [2usize, 8] {
        let (history, ledger) = run(width);
        assert_eq!(history_1, history, "width {width} changed the history");
        assert_eq!(ledger_1, ledger, "width {width} changed the payment ledger");
    }
    assert!(ledger_1.total() > 0.0, "FMore rounds actually paid winners");
}

/// The full scale sweep (all three figures) is bit-identical across runner pool sizes —
/// the population-scale twin of the figure-level determinism the dense experiments pin.
#[test]
fn scale_sweep_figures_are_identical_across_pool_sizes() {
    use fmore::sim::experiments::scale::{self, ScaleConfig};
    let config = ScaleConfig {
        populations: vec![800, 2_400],
        winners: 16,
        shard_size: 512,
        reserve: 16,
        parity_limit: 2_400,
        grid_size: 48,
        seed: 7,
        timed: false,
        spec_version: fmore::mec::population::SpecVersion::V1,
    };
    let wide = ScenarioRunner::with_threads(8);
    let narrow = ScenarioRunner::with_threads(1);
    assert_eq!(
        scale::run_selection(&wide, &config).unwrap(),
        scale::run_selection(&narrow, &config).unwrap(),
    );
    assert_eq!(
        scale::run_memory(&wide, &config).unwrap(),
        scale::run_memory(&narrow, &config).unwrap(),
    );
    let parity = scale::run_parity(&wide, &config).unwrap();
    assert_eq!(parity, scale::run_parity(&narrow, &config).unwrap());
    assert!(parity.all_identical());
}

// ---------------------------------------------------------------------------
// Multi-tenant service: neighbours and pool width must not exist in a job's history.
// ---------------------------------------------------------------------------

/// The service's core isolation guarantee: 1/2/8-worker pools × 2–8 interleaved jobs of
/// mixed schemes and stream contracts produce bit-identical per-job histories vs solo runs
/// of the same specs at the same width — and the auction-observable fingerprint is
/// additionally identical *across* widths (only the memory-accounting `peak_bid_bytes`
/// may widen with the pool).
#[test]
fn concurrent_jobs_match_solo_histories_across_pools() {
    use fmore::fl::service::{AuctionService, ServiceConfig};
    use fmore::sim::experiments::service_soak::{job_specs, SoakConfig};

    let config = SoakConfig {
        jobs: 8,
        rounds: 2,
        population: 384,
        shard_size: 96,
        winners: 8,
        reserve: 8,
        grid_size: 48,
        seed: 5_050,
        fan_out: Default::default(),
    };
    let specs = job_specs(&config).expect("soak specs build");

    let solo_at = |threads: usize| -> Vec<fmore::fl::service::JobHistory> {
        specs
            .iter()
            .map(|spec| {
                let service = AuctionService::with_engine(
                    ServiceConfig::default(),
                    RoundEngine::pooled(threads),
                );
                let id = service.admit(spec.clone()).expect("admission");
                for _ in 0..config.rounds {
                    service.run_round(id).expect("solo round runs");
                }
                service.close(id).expect("close returns the history")
            })
            .collect()
    };

    let mut fingerprints_by_width = Vec::new();
    for threads in [1usize, 2, 8] {
        let solo = solo_at(threads);
        fingerprints_by_width.push(solo.iter().map(|h| h.fingerprint()).collect::<Vec<_>>());
        for jobs in [2usize, 5, 8] {
            let service = AuctionService::with_engine(
                ServiceConfig {
                    max_jobs: jobs,
                    max_pending: 4,
                },
                RoundEngine::pooled(threads),
            );
            let ids: Vec<_> = specs[..jobs]
                .iter()
                .map(|s| service.admit(s.clone()).expect("admission"))
                .collect();
            // One OS thread per job, all multiplexed on the shared pool.
            std::thread::scope(|scope| {
                for &id in &ids {
                    let service = &service;
                    let rounds = config.rounds;
                    scope.spawn(move || {
                        for _ in 0..rounds {
                            service.request_round(id).expect("queue has room");
                            assert_eq!(service.run_pending(id).expect("drain runs"), 1);
                        }
                    });
                }
            });
            for (j, &id) in ids.iter().enumerate() {
                let interleaved = service.close(id).expect("close returns the history");
                assert_eq!(
                    interleaved, solo[j],
                    "{threads}-thread pool, {jobs} jobs: job {j} diverged from its solo run"
                );
            }
        }
    }
    // Across widths, the auction-observable content is invariant too.
    assert_eq!(fingerprints_by_width[0], fingerprints_by_width[1]);
    assert_eq!(fingerprints_by_width[0], fingerprints_by_width[2]);
}

/// The cross-layer poisoned-neighbour regression (ISSUE 7): job A's training work panics
/// every round, job B — built by the same sim-layer spec factory and driven concurrently on
/// the same pool — completes every round bit-identically to a solo run, the process
/// survives, and A's failures are typed `JobPanic` records in A's own history.
#[test]
fn poisoned_job_never_aborts_its_neighbours_round() {
    use fmore::fl::service::{AuctionService, ServiceConfig};
    use fmore::fl::FlError;
    use fmore::sim::experiments::service_soak::{job_specs, SoakConfig};
    use std::sync::Arc;

    let config = SoakConfig::quick();
    let mut specs = job_specs(&config).expect("soak specs build");
    let healthy_spec = specs[1].clone();
    specs[0].work = Some(Arc::new(|_round, _slot, _winner| {
        panic!("poisoned tenant: training task dies")
    }));

    // Reference: the healthy job solo on its own pool.
    let solo = {
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
        let id = service.admit(healthy_spec.clone()).expect("admission");
        for _ in 0..config.rounds {
            service.run_round(id).expect("healthy round runs");
        }
        service.close(id).expect("close")
    };

    let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
    let poisoned = service.admit(specs[0].clone()).expect("admission");
    let healthy = service.admit(healthy_spec).expect("admission");
    std::thread::scope(|scope| {
        let service = &service;
        let rounds = config.rounds;
        scope.spawn(move || {
            for _ in 0..rounds {
                let err = service.run_round(poisoned).expect_err("poisoned rounds fail");
                assert!(
                    matches!(err, FlError::JobPanic(ref p) if p.message.contains("poisoned tenant")),
                    "unexpected failure: {err}"
                );
            }
        });
        scope.spawn(move || {
            for _ in 0..rounds {
                service
                    .run_round(healthy)
                    .expect("neighbour round survives");
            }
        });
    });

    let poisoned_history = service.close(poisoned).expect("close");
    assert_eq!(poisoned_history.failed(), config.rounds);
    assert!(poisoned_history
        .rounds
        .iter()
        .all(|r| matches!(r.outcome, Err(FlError::JobPanic(_)))));
    let healthy_history = service.close(healthy).expect("close");
    assert_eq!(
        healthy_history, solo,
        "the healthy job's history must be untouched by its poisoned neighbour"
    );
}

// ---------------------------------------------------------------------------
// Chaos determinism (ISSUE 8): active fault injection must change nothing it
// doesn't name — healthy tenants bit-match solo, faulted tenants recover with
// typed records, and a checkpointed run equals the uninterrupted one.
// ---------------------------------------------------------------------------

/// The chaos pin: under an active `FaultPlan` injecting panics, stalls, dropouts, and
/// corrupted updates into half the fleet, (a) every *healthy* job's interleaved history is
/// bit-identical to its solo run at the same pool width, (b) every *faulted* job recovers
/// all its rounds within the watchdog's retry budget, with each injected fault and each
/// retried error present as typed entries in its `RoundRecord`s, and (c) the whole fleet's
/// fingerprints are invariant across pool widths.
#[test]
fn chaos_fleet_heals_within_budget_and_spares_healthy_tenants() {
    use fmore::fl::service::{AuctionService, ServiceConfig};
    use fmore::fl::WatchdogSpec;
    use fmore::sim::experiments::chaos_soak::{job_specs, ChaosConfig};

    let config = ChaosConfig::quick();
    let specs = job_specs(&config).expect("chaos specs build");
    let rounds = config.soak.rounds;

    let solo_at = |threads: usize| -> Vec<fmore::fl::service::JobHistory> {
        specs
            .iter()
            .map(|spec| {
                let service = AuctionService::with_engine(
                    ServiceConfig::default(),
                    RoundEngine::pooled(threads),
                );
                let id = service.admit(spec.clone()).expect("admission");
                for _ in 0..rounds {
                    // Faulted rounds may fail an attempt and recover; the recorded
                    // outcome is what the determinism comparison pins.
                    let _ = service.run_round(id);
                }
                service.close(id).expect("close")
            })
            .collect()
    };

    let mut fingerprints_by_width = Vec::new();
    for threads in [1usize, 4] {
        let solo = solo_at(threads);
        fingerprints_by_width.push(solo.iter().map(|h| h.fingerprint()).collect::<Vec<_>>());

        // The interleaved fleet: all four tenants on one shared service, one driver
        // thread each, faulted beside healthy.
        let service =
            AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(threads));
        let ids: Vec<_> = specs
            .iter()
            .map(|s| service.admit(s.clone()).expect("admission"))
            .collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                let service = &service;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        service.request_round(id).expect("queue has room");
                        service.run_pending(id).expect("drain runs");
                    }
                });
            }
        });

        for (j, &id) in ids.iter().enumerate() {
            let interleaved = service.close(id).expect("close");
            // (a) + chaos replayability: every tenant — healthy *and* faulted — matches
            // its solo run bit-for-bit (fault draws are deterministic).
            assert_eq!(
                interleaved, solo[j],
                "{threads}-thread pool: job {j} diverged from its solo run"
            );
            let is_faulted = specs[j].faults.is_some();
            // (b) every faulted job recovered every round within the retry budget…
            assert_eq!(
                interleaved.completed(),
                rounds,
                "job {j} did not recover every round"
            );
            let total_faults: usize = interleaved.rounds.iter().map(|r| r.faults.len()).sum();
            if is_faulted {
                assert!(total_faults > 0, "faulted job {j} recorded no faults");
                // …with its faults and retried errors as typed entries.
                for record in &interleaved.rounds {
                    assert_eq!(
                        record.retry_errors.len() as u32,
                        record.attempts - 1,
                        "job {j}: retries and typed errors disagree"
                    );
                    assert!(record.retry_errors.iter().all(WatchdogSpec::retryable));
                    if record.attempts > 1 {
                        assert!(
                            record.backoff_secs > 0.0,
                            "job {j}: retry without backoff accounting"
                        );
                        assert!(
                            !record.faults.is_empty(),
                            "job {j}: a retried round must name its faults"
                        );
                    }
                }
                assert!(
                    interleaved.rounds.iter().any(|r| r.attempts > 1),
                    "chaos rates must trip the watchdog at least once for job {j}"
                );
            } else {
                assert_eq!(total_faults, 0, "healthy job {j} recorded injected faults");
                assert!(interleaved.rounds.iter().all(|r| r.attempts == 1));
            }
        }
    }
    // (c) the auction-observable content is invariant across pool widths.
    assert_eq!(fingerprints_by_width[0], fingerprints_by_width[1]);
}

/// The checkpoint pin: a job checkpointed mid-run, serialised to bytes, decoded, and
/// restored onto a *fresh* service finishes with a history bit-identical to the
/// uninterrupted run's — for a healthy tenant and for one under active fault injection.
#[test]
fn checkpoint_restore_equals_the_uninterrupted_run_even_under_chaos() {
    use fmore::fl::service::{AuctionService, JobCheckpoint, ServiceConfig};
    use fmore::sim::experiments::chaos_soak::{job_specs, ChaosConfig};

    let config = ChaosConfig::quick();
    let specs = job_specs(&config).expect("chaos specs build");
    let rounds = 4usize;

    // Job 0 is healthy, job 1 runs under the chaos plan.
    for spec in [&specs[0], &specs[1]] {
        let uninterrupted = {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let id = service.admit(spec.clone()).expect("admission");
            for _ in 0..rounds {
                let _ = service.run_round(id);
            }
            service.close(id).expect("close")
        };

        for cut in 1..rounds {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let id = service.admit(spec.clone()).expect("admission");
            for _ in 0..cut {
                let _ = service.run_round(id);
            }
            let bytes = service.checkpoint(id).expect("checkpoint").to_bytes();
            let decoded = JobCheckpoint::from_bytes(&bytes).expect("decode");
            let fresh =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let resumed = fresh.restore(spec.clone(), decoded).expect("restore");
            for _ in cut..rounds {
                let _ = fresh.run_round(resumed);
            }
            let history = fresh.close(resumed).expect("close");
            assert_eq!(
                history, uninterrupted,
                "job '{}' interrupted after round {cut} diverged from the uninterrupted run",
                spec.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Training fan-out granularity (ISSUE 9): dispatch shape is a pure wall-clock knob.
// ---------------------------------------------------------------------------

/// Splitting local training into per-epoch or per-batch task units must never change a
/// history: every [`FanOutGranularity`] × every pool width reproduces the per-winner
/// inline run bit-for-bit. Shuffles draw from the job RNG and dropout from the model
/// scratch RNG in the same order regardless of how the work is chopped, so the parameter
/// trajectories — and therefore the aggregated history — are byte-equal.
#[test]
fn fan_out_granularity_is_invisible_in_every_history() {
    use fmore::fl::engine::FanOutGranularity;

    let reference = history_with(SelectionStrategy::fmore(), RoundEngine::inline(), SEED);
    for granularity in [
        FanOutGranularity::PerWinner,
        FanOutGranularity::PerEpoch,
        FanOutGranularity::PerBatch,
    ] {
        for threads in [1usize, 2, 8] {
            let mut trainer = FederatedTrainer::with_engine(
                FlConfig::fast_test(TaskKind::MnistO),
                SelectionStrategy::fmore(),
                SEED,
                RoundEngine::pooled(threads),
            )
            .expect("fast config is valid");
            trainer.set_fan_out(granularity);
            let history = trainer.run(ROUNDS).expect("training runs");
            assert_eq!(
                history, reference,
                "{granularity:?} on a {threads}-thread pool diverged from per-winner inline"
            );
        }
    }
}

/// The service leg of the same pin, under active fault injection: the chaos fleet's
/// history fingerprints are identical whether the per-winner work stage dispatches
/// directly through `try_run_tasks` or is wrapped into one-unit task chains
/// (`fan_out: PerEpoch`/`PerBatch`), across 1/2/8-thread pools. Injected work panics
/// land on the same winner slots either way — the chain index *is* the submission slot.
#[test]
fn chained_work_dispatch_matches_direct_dispatch_even_under_chaos() {
    use fmore::fl::engine::FanOutGranularity;
    use fmore::fl::service::{AuctionService, ServiceConfig};
    use fmore::sim::experiments::chaos_soak::{job_specs, ChaosConfig};

    let config = ChaosConfig::quick();
    let rounds = config.soak.rounds;
    let fingerprints = |fan_out: FanOutGranularity, threads: usize| -> Vec<u64> {
        let mut specs = job_specs(&config).expect("chaos specs build");
        for spec in &mut specs {
            spec.fan_out = fan_out;
        }
        specs
            .iter()
            .map(|spec| {
                let service = AuctionService::with_engine(
                    ServiceConfig::default(),
                    RoundEngine::pooled(threads),
                );
                let id = service.admit(spec.clone()).expect("admission");
                for _ in 0..rounds {
                    // Faulted rounds may exhaust the watchdog; the recorded outcome is
                    // what the fingerprint comparison pins.
                    let _ = service.run_round(id);
                }
                service.close(id).expect("close").fingerprint()
            })
            .collect()
    };

    let reference = fingerprints(FanOutGranularity::PerWinner, 2);
    for fan_out in [FanOutGranularity::PerEpoch, FanOutGranularity::PerBatch] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                fingerprints(fan_out, threads),
                reference,
                "{fan_out:?} dispatch on a {threads}-thread pool changed a chaos fingerprint"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adversary determinism (ISSUE 10): seeded Byzantine behaviour must replay
// bit-for-bit at every pool width, and an all-honest adversary plan must be
// indistinguishable from no plan at all.
// ---------------------------------------------------------------------------

/// The adversary pin: the Byzantine fleet — untruthful bids, poisoned updates, a live
/// reputation loop, robust aggregation — produces bit-identical histories across 1-, 2-,
/// and 8-worker pools, interleaved or solo. Every adversary draw is a pure function of
/// `(plan seed ⊕ job seed, round, slot)`, so thread scheduling can never leak into who
/// distorts, who poisons, or who gets quarantined.
#[test]
fn adversary_fleet_is_bit_identical_across_pool_widths() {
    use fmore::fl::service::{AuctionService, JobHistory, ServiceConfig};
    use fmore::sim::experiments::adversary_soak::{job_specs, AdversaryConfig};

    let config = AdversaryConfig::quick();
    let specs = job_specs(&config).expect("adversary specs build");
    let rounds = config.soak.rounds;

    let solo_at = |threads: usize| -> Vec<JobHistory> {
        specs
            .iter()
            .map(|spec| {
                let service = AuctionService::with_engine(
                    ServiceConfig::default(),
                    RoundEngine::pooled(threads),
                );
                let id = service.admit(spec.clone()).expect("admission");
                for _ in 0..rounds {
                    let _ = service.run_round(id);
                }
                service.close(id).expect("close")
            })
            .collect()
    };

    let reference = solo_at(2);
    let quarantined: usize = reference
        .iter()
        .flat_map(|h| &h.rounds)
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|s| s.quarantined)
        .sum();
    assert!(
        quarantined > 0,
        "the Byzantine fleet quarantined nothing — the pin would be vacuous"
    );
    // Across pool widths, the auction-observable content (which `fingerprint()` folds;
    // `peak_bid_bytes` is legitimately width-dependent) is invariant.
    let reference_prints: Vec<u64> = reference.iter().map(|h| h.fingerprint()).collect();
    for threads in [1usize, 8] {
        let prints: Vec<u64> = solo_at(threads).iter().map(|h| h.fingerprint()).collect();
        assert_eq!(
            prints, reference_prints,
            "a {threads}-worker pool changed an adversary-fleet fingerprint"
        );
    }

    // Interleaved on one shared service: still bit-identical to solo.
    let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
    let ids: Vec<_> = specs
        .iter()
        .map(|s| service.admit(s.clone()).expect("admission"))
        .collect();
    std::thread::scope(|scope| {
        for &id in &ids {
            let service = &service;
            scope.spawn(move || {
                for _ in 0..rounds {
                    service.request_round(id).expect("queue has room");
                    service.run_pending(id).expect("drain runs");
                }
            });
        }
    });
    for (j, &id) in ids.iter().enumerate() {
        assert_eq!(
            service.close(id).expect("close"),
            reference[j],
            "job {j} interleaved beside Byzantine tenants diverged from its solo run"
        );
    }
}

/// The inertness pin: decorating every tenant of the *plain* service-soak fleet with an
/// all-honest `AdversaryPlan` plus an idle reputation ledger reproduces the undecorated
/// fleet's histories byte-for-byte — the adversary layer is pure potential until a rate
/// is nonzero, so the committed golden fingerprints cannot drift from wiring alone.
#[test]
fn honest_adversary_decoration_reproduces_undecorated_histories() {
    use fmore::fl::service::{AuctionService, ServiceConfig};
    use fmore::fl::{AdversaryPlan, ReputationSpec};
    use fmore::sim::experiments::service_soak::{job_specs, SoakConfig};

    let config = SoakConfig::quick();
    let rounds = config.rounds;
    let run = |decorate: bool| -> Vec<fmore::fl::service::JobHistory> {
        let mut specs = job_specs(&config).expect("soak specs build");
        if decorate {
            for (j, spec) in specs.iter_mut().enumerate() {
                spec.adversaries = Some(AdversaryPlan::honest(0xFACE + j as u64));
                spec.reputation = Some(ReputationSpec::standard());
            }
        }
        specs
            .iter()
            .map(|spec| {
                let service =
                    AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
                let id = service.admit(spec.clone()).expect("admission");
                for _ in 0..rounds {
                    service.run_round(id).expect("clean fleet rounds run");
                }
                service.close(id).expect("close")
            })
            .collect()
    };
    assert_eq!(
        run(false),
        run(true),
        "an all-honest adversary plan must be bitwise inert"
    );
}

/// The bit pin of the paper's CNNs: two K = 2 rounds of the footnote-1 model on MNIST-O and
/// the footnote-2 model on CIFAR-10 (3→16 3×3, then 16→32 2×2 after pooling), fingerprinted
/// as every round's accuracy and loss bits plus an FNV-1a fold of the final global
/// parameters. The values were recorded on the seven-deep scalar convolution loops, before
/// `Conv2d` moved onto the matmul cores; a kernel change that reassociates one sum, drops one
/// term that mattered, or moves one weight by an ULP changes them.
#[test]
fn paper_cnn_training_fingerprints_are_pinned() {
    use fmore::fl::config::ModelChoice;
    use fmore::ml::partition::PartitionConfig;

    let fingerprint = |task: TaskKind| -> Vec<u64> {
        let config = FlConfig {
            model: ModelChoice::PaperModel,
            clients: 6,
            winners_per_round: 2,
            train_samples: 240,
            test_samples: 60,
            partition: PartitionConfig {
                clients: 6,
                size_range: (30, 50),
                category_range: (2, 10),
            },
            batch_size: 20,
            ..FlConfig::fast_test(task)
        };
        let mut trainer = FederatedTrainer::with_engine(
            config,
            SelectionStrategy::fmore(),
            SEED,
            RoundEngine::inline(),
        )
        .expect("paper-model config is valid");
        let history = trainer.run(2).expect("training runs");
        let mut words: Vec<u64> = history
            .rounds
            .iter()
            .flat_map(|r| [r.accuracy.to_bits(), r.loss.to_bits()])
            .collect();
        words.push(
            trainer
                .global_parameters()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h: u64, p| {
                    (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
                }),
        );
        words
    };
    assert_eq!(
        fingerprint(TaskKind::MnistO),
        [
            0x3fbdddddddddddde,
            0x4003f837b6f9b381,
            0x3fd1111111111111,
            0x4001a82dda8127f0,
            0xa9ea3d292d4640c8,
        ],
        "MNIST-O paper CNN drifted"
    );
    assert_eq!(
        fingerprint(TaskKind::Cifar10),
        [
            0x3fb999999999999a,
            0x4003c740643cae55,
            0x3fb1111111111111,
            0x4002793b9e3cb97e,
            0x12f4cffd5db3d618,
        ],
        "CIFAR-10 paper CNN drifted"
    );
}
