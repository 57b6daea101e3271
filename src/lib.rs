//! # fmore
//!
//! A full reproduction of *"FMore: An Incentive Scheme of Multi-dimensional Auction for
//! Federated Learning in MEC"* (Zeng, Zhang, Wang, Chu — ICDCS 2020) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members so downstream users can depend on a
//! single crate:
//!
//! * [`auction`] — the paper's contribution: the multi-dimensional procurement auction with
//!   `K` winners, batched scoring/ranking, Nash-equilibrium bidding, ψ-FMore, the
//!   mechanism-property checks, and the stand-alone auction games behind the parameter
//!   sweeps ([`auction::game`]),
//! * [`numerics`] — quadrature, distributions, optimisation and seeded RNG helpers used by
//!   the equilibrium computation,
//! * [`ml`] — the from-scratch machine-learning substrate (CNN / LSTM / MLP models, synthetic
//!   datasets, non-IID partitioning),
//! * [`fl`] — the federated-learning substrate: clients, FedAvg, RandFL / FixFL / FMore
//!   selection, and the **round engine** ([`fl::engine`]) — the composable stage pipeline
//!   (bid collection → auction → local training → aggregation → evaluation) with a
//!   persistent worker pool behind every parallel stage,
//! * [`mec`] — the simulated 32-node MEC cluster, a thin driver over the same round engine
//!   with its own three-dimensional resource and wall-clock models,
//! * [`sim`] — the **scenario layer**: declarative [`sim::ScenarioSpec`]s executed by a
//!   pooled [`sim::ScenarioRunner`], one presentation module per paper figure, and the
//!   experiment registry ([`sim::experiments::registry`]).
//!
//! Architecture in one line: **one round pipeline, one worker pool, scenarios as data** —
//! every training run in the workspace (trainer, cluster, experiment sweeps) flows through
//! the same engine stages, and results are deterministic per seed regardless of thread
//! count or execution mode (pinned by `tests/determinism.rs`). See `crates/README.md` for
//! the stage diagram and the figure-by-figure run guide.
//!
//! # Quickstart
//!
//! ```
//! use fmore::fl::config::FlConfig;
//! use fmore::fl::selection::SelectionStrategy;
//! use fmore::fl::trainer::FederatedTrainer;
//! use fmore::ml::dataset::TaskKind;
//!
//! // Train a small federated task with FMore-based client selection (local training runs
//! // on the process-wide shared worker pool).
//! let config = FlConfig::fast_test(TaskKind::MnistO);
//! let mut trainer = FederatedTrainer::new(config, SelectionStrategy::fmore(), 1)?;
//! let history = trainer.run(3)?;
//! assert_eq!(history.rounds.len(), 3);
//! println!("final accuracy: {:.3}", history.final_accuracy());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Running experiments through the scenario engine
//!
//! ```
//! use fmore::sim::experiments::registry::{self, Fidelity};
//! use fmore::sim::{ScenarioRunner, ScenarioSpec};
//!
//! // Declarative: a scenario is data, the runner supplies the loop and the pool.
//! let runner = ScenarioRunner::new();
//! let spec = ScenarioSpec::new(
//!     "quick FMore",
//!     fmore::fl::FlConfig::fast_test(fmore::ml::dataset::TaskKind::MnistO),
//!     fmore::fl::SelectionStrategy::fmore(),
//!     2,
//!     7,
//! );
//! let outcome = runner.run(&spec)?;
//! assert_eq!(outcome.history.rounds.len(), 2);
//!
//! // Or run a registered paper figure by name.
//! let report = registry::find("scores")?.run(&runner, Fidelity::Quick)?;
//! assert!(report.to_markdown().contains("FMore"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use fmore_auction as auction;
pub use fmore_fl as fl;
pub use fmore_mec as mec;
pub use fmore_ml as ml;
pub use fmore_numerics as numerics;
pub use fmore_sim as sim;

/// The crate version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }

    #[test]
    fn reexports_are_wired_up() {
        // A smoke test touching one item from every re-exported crate.
        let _ = super::numerics::seeded_rng(1);
        let _ = super::auction::SelectionRule::TopK;
        let _ = super::ml::dataset::TaskKind::Cifar10;
        let _ = super::fl::selection::SelectionStrategy::fmore();
        let _ = super::mec::cluster::ClusterStrategy::FMore;
        let _ = super::sim::Series::from_rounds("x", vec![1.0]);
    }
}
