//! One module per figure (or family of figures) of the paper's evaluation, plus the
//! declarative registry that catalogues them all. Each module is a presentation layer over
//! the scenario engine of [`crate::scenario`] and the round engine's shared stages: a module
//! may build the game it sweeps (solver, auction), but none owns a training loop or a
//! selector of its own.

pub mod accuracy;
pub mod adversary_soak;
pub mod chaos_soak;
pub mod cluster;
pub mod dynamics;
pub mod headline;
#[cfg(test)]
mod impact_k;
#[cfg(test)]
mod impact_n;
#[cfg(test)]
mod impact_psi;
pub mod parameter_impact;
pub mod registry;
pub mod scale;
pub mod scores;
pub mod service_soak;
