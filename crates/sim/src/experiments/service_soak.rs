//! The `service-soak` registry entry: N concurrent FL jobs of mixed schemes multiplexed on
//! one [`AuctionService`], with every job's interleaved history checked bit-identical to a
//! solo run of the same spec.
//!
//! Each job binds its own lazily derived [`NodePopulation`] (alternating the v1 and v2
//! stream contracts) and its own tabulated equilibrium solver into a round-aware
//! [`BidSource`], alternates FMore top-K with ψ-FMore selection, and attaches a synthetic
//! deadline model to half the fleet. Jobs are driven from one OS thread each through the
//! service's request/drain (backpressure) interface, all sharing the runner's worker pool —
//! the soak is precisely the noisy-neighbour regime the service's ownership contract has to
//! survive.

use crate::error::SimError;
use crate::experiments::registry::ExperimentReport;
use crate::experiments::scale::population_game;
use crate::scenario::ScenarioRunner;
use crate::series::Table;
use fmore_auction::SelectionRule;
use fmore_fl::engine::{FanOutGranularity, RoundEngine};
use fmore_fl::service::{AuctionService, BidSource, DeadlineSpec, JobSpec, ServiceConfig};
use fmore_mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore_numerics::rng::derive_seed;
use std::sync::Arc;

/// Configuration of the service soak.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Concurrent jobs driven through one service.
    pub jobs: usize,
    /// Rounds each job runs.
    pub rounds: usize,
    /// Bidder population per job.
    pub population: usize,
    /// Shard width of each job's bid stream.
    pub shard_size: usize,
    /// Winners per round `K`.
    pub winners: usize,
    /// Standing candidates kept beyond `K`.
    pub reserve: usize,
    /// θ grid resolution of each job's equilibrium tabulation.
    pub grid_size: usize,
    /// Base seed; job `j` derives its own stream as `derive_seed(seed, j)`.
    pub seed: u64,
    /// Dispatch granularity of the per-winner work stage. It has one value and nothing
    /// reads it; the field stays only because `benchmark/src/workloads.rs` sets it.
    pub fan_out: FanOutGranularity,
}

impl SoakConfig {
    /// Sub-second configuration for tests, CI, and the golden suite.
    pub fn quick() -> Self {
        Self {
            jobs: 4,
            rounds: 3,
            population: 512,
            shard_size: 128,
            winners: 8,
            reserve: 8,
            grid_size: 48,
            seed: 7_171,
            fan_out: FanOutGranularity::PerWinner,
        }
    }

    /// The heavy soak: eight mixed-scheme tenants, larger populations, more rounds.
    pub(crate) fn paper() -> Self {
        Self {
            jobs: 8,
            rounds: 12,
            population: 8_192,
            shard_size: 1_024,
            winners: 16,
            reserve: 16,
            grid_size: 96,
            seed: 7_171,
            fan_out: FanOutGranularity::PerWinner,
        }
    }
}

fn scheme_for(j: usize) -> SelectionRule {
    if j.is_multiple_of(2) {
        SelectionRule::TopK
    } else {
        SelectionRule::PsiFMore { psi: 0.7 }
    }
}

fn version_for(j: usize) -> SpecVersion {
    if j % 4 < 2 {
        SpecVersion::V1
    } else {
        SpecVersion::V2
    }
}

fn scheme_name(rule: SelectionRule) -> &'static str {
    match rule {
        SelectionRule::TopK => "FMore",
        SelectionRule::PsiFMore { .. } => "psi-FMore",
    }
}

fn version_name(version: SpecVersion) -> &'static str {
    match version {
        SpecVersion::V1 => "v1",
        SpecVersion::V2 => "v2",
    }
}

/// Builds the soak's job specs: per-job populations of alternating stream contracts, mixed
/// selection rules, per-job seeds, deadlines on the odd half, and a deterministic synthetic
/// per-winner work closure standing in for local training.
///
/// # Errors
///
/// Propagates population and solver construction failures.
pub fn job_specs(config: &SoakConfig) -> Result<Vec<JobSpec>, SimError> {
    (0..config.jobs)
        .map(|j| {
            let seed = derive_seed(config.seed, j as u64 + 1);
            let version = version_for(j);
            let selection = scheme_for(j);
            let spec = PopulationSpec::scale_default(config.population, seed).with_version(version);
            let population = NodePopulation::new(spec)?;
            let (auction, solver) =
                population_game(&spec, config.winners, selection, config.grid_size)?;
            let solver = Arc::new(solver);
            let source: Arc<BidSource> = Arc::new(move |range, round, store| {
                population.bid_range_into_store(range, round, &solver, store)
            });
            Ok(JobSpec {
                name: format!(
                    "job{j}-{}-{}",
                    scheme_name(selection),
                    version_name(version)
                ),
                population: config.population,
                shard_size: config.shard_size,
                reserve: config.reserve,
                auction,
                seed,
                deadline: (j % 2 == 1).then(DeadlineSpec::lenient),
                max_pending: 4,
                update_dim: 0,
                watchdog: None,
                faults: None,
                adversaries: None,
                reputation: None,
                aggregation: JobSpec::default_aggregation(),
                source,
                // Deterministic stand-in for local training: pure in (round, slot, winner).
                work: Some(Arc::new(|round, slot, winner| {
                    (winner.score + winner.payment) * (1.0 + (round as f64 + slot as f64).sqrt())
                })),
            })
        })
        .collect()
}

/// Runs every job solo (its own fresh service on the same pool), `rounds` rounds each,
/// returning the per-job history fingerprints.
///
/// # Errors
///
/// Propagates service failures (every soak round is expected to succeed).
pub(crate) fn solo_fingerprints(
    engine: &RoundEngine,
    specs: &[JobSpec],
    rounds: usize,
) -> Result<Vec<u64>, SimError> {
    specs
        .iter()
        .map(|spec| {
            let service = AuctionService::with_engine(ServiceConfig::default(), engine.clone());
            let id = service.admit(spec.clone())?;
            for _ in 0..rounds {
                service.run_round(id)?;
            }
            Ok(service.close(id)?.fingerprint())
        })
        .collect()
}

/// One driven soak: admits every spec into one shared service and drives each job from its
/// own OS thread through the backpressure interface (request until the queue refuses, then
/// drain), until every job has run `rounds` rounds. Returns the per-job histories' final
/// summaries as table rows plus the fingerprint comparison against solo runs.
///
/// # Errors
///
/// Propagates service failures.
pub(crate) fn run(
    runner: &ScenarioRunner,
    config: &SoakConfig,
) -> Result<ExperimentReport, SimError> {
    let engine = runner.engine();
    let specs = job_specs(config)?;
    let solo = solo_fingerprints(&engine, &specs, config.rounds)?;

    let service = AuctionService::with_engine(
        ServiceConfig {
            max_jobs: config.jobs,
            max_pending: 4,
        },
        engine,
    );
    let ids: Vec<_> = specs
        .iter()
        .map(|spec| service.admit(spec.clone()))
        .collect::<Result<_, _>>()?;

    std::thread::scope(|scope| -> Result<(), SimError> {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let service = &service;
                let rounds = config.rounds;
                scope.spawn(move || -> Result<(), SimError> {
                    let mut remaining = rounds;
                    while remaining > 0 {
                        // Fill the bounded queue, then drain it: the service's intended
                        // request/run rhythm under sustained traffic.
                        while remaining > 0 {
                            match service.request_round(id) {
                                Ok(()) => remaining -= 1,
                                Err(fmore_fl::FlError::Backpressure { .. }) => break,
                                Err(e) => return Err(e.into()),
                            }
                        }
                        service.run_pending(id)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
        }
        Ok(())
    })?;

    let mut table = Table::new(
        format!("Service soak: {} concurrent jobs on one pool", config.jobs),
        &[
            "job",
            "scheme",
            "stream",
            "rounds",
            "failed",
            "winners/round",
            "total payment",
            "matches solo",
        ],
    );
    for (j, (&id, spec)) in ids.iter().zip(&specs).enumerate() {
        let history = service.history(id)?;
        let completed = history.completed();
        let failed = history.failed();
        let (winners, payment) = history
            .rounds
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .fold((0usize, 0.0f64), |(w, p), s| {
                (w + s.winners.len(), p + s.total_payment)
            });
        let matches = history.fingerprint() == solo[j];
        table.push_row(&[
            spec.name.clone(),
            scheme_name(scheme_for(j)).to_string(),
            version_name(version_for(j)).to_string(),
            completed.to_string(),
            failed.to_string(),
            format!("{:.1}", winners as f64 / completed.max(1) as f64),
            format!("{payment:.4}"),
            if matches { "yes" } else { "NO" }.to_string(),
        ]);
        if !matches {
            return Err(SimError::Fl(fmore_fl::FlError::InvalidConfig(format!(
                "job {} interleaved history diverged from its solo run",
                spec.name
            ))));
        }
    }
    Ok(ExperimentReport {
        name: "service-soak",
        tables: vec![table],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_is_deterministic_and_matches_solo() {
        let runner = ScenarioRunner::with_threads(2);
        let a = run(&runner, &SoakConfig::quick()).unwrap();
        let b = run(&runner, &SoakConfig::quick()).unwrap();
        assert_eq!(a, b, "the soak report is bit-stable");
        let md = a.to_markdown();
        assert!(md.contains("FMore"));
        assert!(md.contains("psi-FMore"));
        assert!(md.contains("v2"));
        assert!(!md.contains("NO"), "every job matched its solo history");
    }

    #[test]
    fn specs_mix_schemes_contracts_and_seeds() {
        let specs = job_specs(&SoakConfig::quick()).unwrap();
        assert_eq!(specs.len(), 4);
        let names: Vec<_> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "job0-FMore-v1",
                "job1-psi-FMore-v1",
                "job2-FMore-v2",
                "job3-psi-FMore-v2",
            ]
        );
        let seeds: std::collections::BTreeSet<_> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), specs.len(), "every job gets its own stream");
        assert!(specs[1].deadline.is_some() && specs[0].deadline.is_none());
    }
}
