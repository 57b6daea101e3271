//! Federated-learning substrate: clients, FedAvg aggregation, client-selection strategies,
//! and the round loop of Algorithm 1.
//!
//! The crate implements the three training schemes compared throughout the paper's
//! evaluation:
//!
//! * **RandFL** — the classic federated learning of McMahan et al.: `K` clients chosen
//!   uniformly at random each round,
//! * **FixFL** — a fixed set of `K` clients trains every round,
//! * **FMore / ψ-FMore** — each round is preceded by the multi-dimensional procurement
//!   auction of [`fmore_auction`]; the `K` highest-scoring bidders train and are paid.
//!
//! The [`trainer::FederatedTrainer`] drives the six steps of Algorithm 1 (bid ask, bid
//! collection, winner determination, task assignment, local training, global aggregation) and
//! records per-round metrics ([`metrics::RoundMetrics`]) — model accuracy, loss, payments,
//! and winner scores — which the experiment harness turns into the paper's figures.
//!
//! # Example
//!
//! ```
//! use fmore_fl::config::FlConfig;
//! use fmore_fl::selection::SelectionStrategy;
//! use fmore_fl::trainer::FederatedTrainer;
//! use fmore_ml::dataset::TaskKind;
//!
//! let config = FlConfig::fast_test(TaskKind::MnistO);
//! let mut trainer = FederatedTrainer::new(config, SelectionStrategy::random(), 42)?;
//! let history = trainer.run(3)?;
//! assert_eq!(history.rounds.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod adversary;
pub mod aggregator;
pub mod client;
pub mod config;
pub mod engine;
pub mod error;
pub mod executor;
pub mod faults;
pub mod metrics;
pub mod selection;
pub mod service;
pub mod trainer;

pub use adversary::{AdversaryPlan, ReputationSpec};
pub use aggregator::{
    AggregationRule, AggregationScratch, CoordinateMedian, FedAvg, Krum, MedianNormScreen,
    ScreenPolicy, TrimmedMean,
};
pub use client::EdgeClient;
pub use config::FlConfig;
pub use engine::{shared_pool, ExecutionMode, RoundEngine, SlotState, WorkerPool};
pub use error::FlError;
pub use executor::JobPanic;
pub use faults::{DrawClock, FaultPlan, WatchdogSpec};
pub use metrics::{RoundMetrics, RoundOutcome, TrainingHistory, WinnerInfo};
pub use selection::SelectionStrategy;
pub use service::{
    AuctionService, JobCheckpoint, JobHistory, JobId, JobSpec, RoundSummary, ServiceConfig,
};
pub use trainer::FederatedTrainer;
