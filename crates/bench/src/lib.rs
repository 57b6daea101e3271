//! Benchmark harness for the FMore reproduction.
//!
//! The interesting parts are the Criterion benches, each of which regenerates the data
//! behind one or more paper figures before timing the underlying computation:
//!
//! * `mechanism` — micro-benchmarks and ablations of the auction core (equilibrium solving
//!   via quadrature vs the paper's Euler route vs Che's closed form, first- vs second-price
//!   payment, top-K vs ψ-FMore selection, scoring-function families),
//! * `figures_accuracy` — Figs. 4–8 (accuracy/loss curves per scheme, winner-score
//!   distribution),
//! * `figures_parameters` — Figs. 9–11 (impact of `N`, `K`, and ψ),
//! * `figures_cluster` — Figs. 12–13 and the headline table (the simulated MEC cluster),
//! * `round_engine` — the pooled round pipeline vs the inline one, and the churn round,
//! * `hot_path` — the allocation-free training kernels: in-place matmul family vs the
//!   allocating composition, arena-backed `train_epoch` vs the [`baseline`] replica of the
//!   pre-refactor path, and a full pooled round at 1/2/8 worker threads,
//! * `auction_scale` — streamed vs dense selection rounds as the population sweeps to 10⁶,
//! * `round_throughput` — the pooled round and the million-bidder streamed round across
//!   work-stealing executor widths 1/2/4/8.
//!
//! Run everything with `cargo bench --workspace`; append `-- --test` (or set
//! `FMORE_BENCH_QUICK=1`) for the quick smoke mode CI uses. The report examples
//! (`bench_report`, `auction_scale_report`, `round_throughput_report`) re-time their
//! suites with the shared min-of-N scaffolding in [`timing`] and emit the committed
//! `BENCH_*.json` perf-trajectory records — regenerate after any substrate change:
//!
//! ```bash
//! cargo run --release -p fmore-bench --example bench_report -- BENCH_hot_path.json
//! cargo run --release -p fmore-bench --example auction_scale_report -- BENCH_auction_scale.json
//! cargo run --release -p fmore-bench --example round_throughput_report -- BENCH_round_throughput.json
//! ```

pub mod baseline;
pub mod timing;

/// The shared "pooled round" workload of the `hot_path` and `round_throughput` suites and
/// their report examples: one full FMore federated round (24 clients, 12 winners, 1,200
/// training samples on the quick-fidelity MNIST-O task, seed 54) on a pool of `threads`
/// workers. Defined once so `BENCH_hot_path.json` and `BENCH_round_throughput.json`
/// always time the identical workload — tuning it here moves every consumer together.
pub fn pooled_round_trainer(threads: usize) -> fmore_fl::trainer::FederatedTrainer {
    let mut config = fmore_fl::config::FlConfig::fast_test(fmore_ml::TaskKind::MnistO);
    config.clients = 24;
    config.winners_per_round = 12;
    config.partition.clients = 24;
    config.train_samples = 1_200;
    fmore_fl::trainer::FederatedTrainer::with_engine(
        config,
        fmore_fl::selection::SelectionStrategy::fmore(),
        54,
        fmore_fl::engine::RoundEngine::pooled(threads),
    )
    .expect("bench config is valid")
}

/// The straggler-heavy local-training fan-out workload of `round_throughput_report`: seven
/// uniform winners plus one straggler holding `straggler / small`× their data, submitted
/// **last** — the worst case for per-winner dispatch (the monolithic straggler task starts
/// only after earlier tasks drain) and the case the chain scheduler's
/// longest-remaining-first policy exists for. Rebuilt per timed run: jobs are consumed by
/// [`fmore_fl::engine::local_training_with`].
pub fn straggler_fanout_jobs(small: usize, straggler: usize) -> Vec<fmore_fl::engine::TrainingJob> {
    use fmore_ml::dataset::SyntheticImageSpec;
    use fmore_ml::layers::{Dense, Layer};
    use fmore_ml::{Model, Sequential};
    use std::sync::Arc;

    let mut rng = fmore_numerics::seeded_rng(77);
    let data = Arc::new(SyntheticImageSpec::mnist_like().generate(512, &mut rng));
    let model = Sequential::new(vec![
        Box::new(Dense::new(data.feature_dim(), 16, &mut rng)) as Box<dyn Layer>,
        Box::new(Dense::new(16, data.num_classes(), &mut rng)),
    ]);
    let global_params = Arc::new(model.parameters());
    let sizes = [small, small, small, small, small, small, small, straggler];
    sizes
        .iter()
        .enumerate()
        .map(|(slot, &size)| {
            let mut state = fmore_fl::engine::SlotState::new(model.clone());
            state.indices = (0..size).map(|i| (slot * 31 + i) % data.len()).collect();
            fmore_fl::engine::TrainingJob {
                slot,
                client: slot,
                state,
                global_params: Arc::clone(&global_params),
                data: Arc::clone(&data),
                epochs: 2,
                learning_rate: 0.05,
                batch_size: 16,
                seed: fmore_numerics::rng::derive_seed(78, slot as u64),
            }
        })
        .collect()
}
