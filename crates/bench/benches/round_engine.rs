//! Per-round wall-clock of the pooled `RoundEngine` against the inline one.
//!
//! This bench times one full federated round (selection + parallel local training +
//! aggregation + evaluation) under both execution modes on identical configurations — the
//! histories produced are bit-identical (see `tests/determinism.rs`), so any delta is pure
//! execution overhead — plus the churn-capable cluster round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fmore_fl::config::FlConfig;
use fmore_fl::engine::RoundEngine;
use fmore_fl::selection::SelectionStrategy;
use fmore_fl::trainer::FederatedTrainer;
use fmore_mec::cluster::{ClusterConfig, ClusterStrategy, MecCluster};
use fmore_mec::dynamics::{ChurnModel, DynamicsConfig};
use fmore_ml::dataset::TaskKind;
use std::time::Duration;

fn round_config() -> FlConfig {
    let mut config = FlConfig::fast_test(TaskKind::MnistO);
    // Enough winners that the pool has parallel work to spread.
    config.clients = 24;
    config.winners_per_round = 12;
    config.partition.clients = 24;
    config.train_samples = 1_200;
    config
}

fn trainer_with(engine: RoundEngine) -> FederatedTrainer {
    FederatedTrainer::with_engine(round_config(), SelectionStrategy::fmore(), 42, engine)
        .expect("bench config is valid")
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("pooled_round", |b| {
        let mut trainer = trainer_with(RoundEngine::pooled(0));
        b.iter(|| trainer.run_round().expect("round runs"))
    });

    group.bench_function("inline_round", |b| {
        let mut trainer = trainer_with(RoundEngine::inline());
        b.iter(|| trainer.run_round().expect("round runs"))
    });

    // The churn-capable cluster round: membership churn, fate draws, the deadline gate, and
    // re-auction waves on top of the same pooled pipeline — what the dynamics subsystem adds
    // over a static round.
    group.bench_function("churn_round", |b| {
        let mut cluster_config = ClusterConfig::fast_test();
        cluster_config.nodes = 24;
        cluster_config.winners_per_round = 12;
        cluster_config.fl.clients = 24;
        cluster_config.fl.winners_per_round = 12;
        cluster_config.fl.partition.clients = 24;
        cluster_config.fl.train_samples = 1_200;
        let cluster_config = cluster_config.with_dynamics(
            DynamicsConfig::new(
                ChurnModel::edge_default()
                    .with_dropout(0.2)
                    .with_stragglers(0.2, 4.0),
            )
            .with_deadline(60.0),
        );
        let mut cluster = MecCluster::with_engine(
            cluster_config,
            ClusterStrategy::FMore,
            42,
            RoundEngine::pooled(0),
        )
        .expect("bench cluster config is valid");
        b.iter(|| cluster.run_round().expect("churn round runs"))
    });

    group.finish();
}

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine_full_run");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("pooled_5_rounds", |b| {
        b.iter_batched(
            || trainer_with(RoundEngine::pooled(0)),
            |mut trainer| trainer.run(5).expect("run completes"),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_round, bench_full_runs);
criterion_main!(benches);
