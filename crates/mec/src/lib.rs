//! Mobile-edge-computing (MEC) cluster simulator.
//!
//! The paper's real-world evaluation (Section V-C, Figs. 12–13) runs FMore on a 32-machine
//! Linux cluster (one aggregator, 31 edge nodes; Intel i7 CPUs, 1 Gbps Ethernet) where each
//! node bids **three** resources — computing power (CPU cores), bandwidth, and data size —
//! under the additive scoring rule `S(q, p) = 0.4·q1 + 0.3·q2 + 0.3·q3 − p`. We do not have
//! that cluster, so this crate simulates it (see DESIGN.md, "Substitutions"):
//!
//! * [`node`] — edge nodes with dynamic per-round resource draws and a private cost θ,
//! * [`time_model`] — analytic computation- and communication-time models calibrated to the
//!   paper's hardware class, producing per-round wall-clock times,
//! * [`dynamics`] — the churn layer of a *dynamic* MEC environment (§I/§VI): seeded
//!   arrival/departure processes, mid-round dropouts, stragglers, resource jitter, and the
//!   server-deadline / re-auction semantics of the cluster's round loop,
//! * [`cluster`] — the full deployment: a three-dimensional FMore auction (or RandFL) per
//!   round, delegation of the actual learning to [`fmore_fl::FederatedTrainer`], and
//!   accumulation of simulated training time (including deadline waits and re-auction waves
//!   when dynamics are enabled),
//! * [`ledger`] — per-node payment accounting over the run,
//! * [`population`] — lazily materialised node populations for million-bidder rounds:
//!   per-node attributes derived O(1) from `(seed, i)` streams, packed-bitmap membership
//!   churn over index sets, and on-demand materialisation of auction winners.
//!
//! # Example
//!
//! ```
//! use fmore_mec::cluster::{ClusterConfig, MecCluster, ClusterStrategy};
//!
//! let config = ClusterConfig::fast_test();
//! let mut cluster = MecCluster::new(config, ClusterStrategy::FMore, 7)?;
//! let history = cluster.run(2)?;
//! assert_eq!(history.rounds.len(), 2);
//! assert!(history.total_time_secs() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod cluster;
pub mod dynamics;
pub mod error;
pub mod ledger;
pub mod node;
pub mod population;
pub mod time_model;

pub use cluster::{ClusterConfig, ClusterHistory, ClusterStrategy, MecCluster};
pub use dynamics::{ChurnModel, DynamicsConfig};
pub use error::MecError;
pub use ledger::PaymentLedger;
pub use node::ResourceProfile;
pub use population::{NodePopulation, PopulationSpec};
pub use time_model::TimeModel;
