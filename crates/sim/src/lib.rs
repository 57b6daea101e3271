//! Experiment harness reproducing every figure of the FMore paper's evaluation (Section V),
//! built on a unified **scenario engine**.
//!
//! The crate has three layers:
//!
//! * [`scenario`] — the engine: a [`scenario::ScenarioSpec`] declaratively describes one
//!   training run (task, strategy, rounds, seed) and a [`scenario::ScenarioRunner`] executes
//!   specs on the shared worker pool of [`fmore_fl::engine`], with independent scenarios
//!   (sweep points, scheme comparisons) running in parallel;
//! * [`experiments`] — one thin presentation module per paper figure, each of which declares
//!   specs, hands them to the runner, and formats the returned histories;
//! * [`experiments::registry`] — the declarative catalogue of every experiment (the seven
//!   paper figures plus the dynamic-MEC robustness suite), so drivers iterate the registry
//!   instead of hard-coding module calls.
//!
//! | Module | Paper figure | What it reports |
//! |---|---|---|
//! | [`experiments::accuracy`] | Figs. 4–7 | accuracy & loss per round for FMore / RandFL / FixFL on each task |
//! | [`experiments::scores`] | Fig. 8 | the distribution of winner scores per scheme |
//! | [`experiments::parameter_impact`] | Figs. 9–11 | rounds-to-accuracy, then (payment, score) as `N` or `K` varies, or the winner-rank spread as ψ varies |
//! | [`experiments::cluster`] | Figs. 12–13 | accuracy and cumulative time on the simulated 32-node cluster |
//! | [`experiments::headline`] | §I / §V text | the headline round-reduction and accuracy-improvement percentages |
//! | [`experiments::dynamics`] | §I / §VI dynamics | churn robustness: dropout sweep, curves under churn, payment waste |
//! | [`experiments::scale`] | population scale | streamed top-K selection, peak bid memory, and dense-path parity as `N` sweeps toward 10⁶ |
//!
//! Every experiment has a `quick()` configuration (seconds, used by tests and CI) and a
//! `paper()` configuration (the full parameters of Section V). The modules that sweep a
//! stand-alone auction ([`experiments::parameter_impact`], [`experiments::scale`]) build the
//! game's equilibrium solver and auction themselves, then select winners through the round
//! engine's streamed selector ([`fmore_fl::engine::auction_select_streamed`]), the path
//! production rounds run.
//!
//! # Example
//!
//! ```
//! use fmore_sim::experiments::registry::{self, Fidelity};
//! use fmore_sim::scenario::ScenarioRunner;
//!
//! let runner = ScenarioRunner::new();
//! let report = registry::find("scores")?.run(&runner, Fidelity::Quick)?;
//! assert!(report.to_markdown().contains("FMore"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod error;
pub mod experiments;
#[cfg(test)]
mod game;
pub mod scenario;
pub mod series;

pub use error::SimError;
pub use scenario::{ClusterScenarioSpec, ScenarioRunner, ScenarioSpec};
pub use series::Series;
