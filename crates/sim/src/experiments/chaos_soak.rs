//! The `chaos-soak` registry entry: the service-soak fleet with half its tenants running
//! under an active [`FaultPlan`] — injected bid-shard panics, work-task panics and stalls,
//! mid-round dropouts, and corrupted model updates — while the other half stays healthy.
//!
//! The soak asserts the full robustness contract in one run:
//!
//! * **Blast-radius zero** — every *healthy* job's interleaved history is bit-identical to
//!   its solo run (faulted neighbours on the same pool change nothing).
//! * **Recovery within budget** — every *faulted* job completes all its rounds: the
//!   watchdog retries each failed attempt (fresh fault draws, identical auction RNG), and
//!   the chaos preset's `faulty_attempts = 1` makes the first retry structurally clean.
//!   Faults, retries, and backoff appear as typed entries in the job's `RoundRecord`s.
//! * **Checkpoint = uninterrupted** — each job checkpointed mid-run, serialised to bytes,
//!   and restored onto a fresh service finishes with a history fingerprint identical to
//!   the solo run's.

use crate::error::SimError;
use crate::experiments::registry::ExperimentReport;
use crate::experiments::service_soak::{self, SoakConfig};
use crate::scenario::ScenarioRunner;
use crate::series::Table;
use fmore_fl::engine::RoundEngine;
use fmore_fl::service::{AuctionService, JobCheckpoint, JobSpec, ServiceConfig};
use fmore_fl::{FaultPlan, WatchdogSpec};
use fmore_numerics::rng::derive_seed;

/// Configuration of the chaos soak: a service-soak fleet plus the fault layer's knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The underlying fleet (jobs, rounds, populations, schemes).
    pub soak: SoakConfig,
    /// Dimension of the synthetic per-winner model updates every job aggregates (the
    /// corruption faults' target surface).
    pub update_dim: usize,
    /// Root seed of the fault streams; job `j` draws from `derive_seed(fault_seed, j)`.
    pub fault_seed: u64,
}

impl ChaosConfig {
    /// Sub-second configuration for tests, CI, and the golden suite.
    pub fn quick() -> Self {
        Self {
            soak: SoakConfig::quick(),
            update_dim: 8,
            fault_seed: 0xC4A0,
        }
    }

    /// The heavy soak: the eight-tenant paper fleet under the same fault rates.
    pub fn paper() -> Self {
        Self {
            soak: SoakConfig::paper(),
            update_dim: 32,
            fault_seed: 0xC4A0,
        }
    }
}

/// Whether fleet job `j` runs under an active fault plan (the odd half — the same half
/// that carries a deadline model, so stall charges land on a metered round clock).
fn faulted(j: usize) -> bool {
    j % 2 == 1
}

/// The watchdog every chaos tenant runs under. The 20 s simulated budget sits between a
/// clean round (≤ 10 s, the lenient deadline) and one injected 30 s stall, so a single
/// stall deterministically trips [`fmore_fl::FlError::RoundTimeout`] and exercises retry.
fn watchdog() -> WatchdogSpec {
    WatchdogSpec {
        round_budget_secs: 20.0,
        max_retries: 3,
        backoff_base_secs: 0.5,
        backoff_factor: 2.0,
    }
}

/// Builds the chaos fleet: the service-soak specs with updates + watchdog everywhere and a
/// [`FaultPlan::chaos`] on the odd half (whose names gain a `-chaos` suffix).
///
/// # Errors
///
/// Propagates population and solver construction failures.
pub fn job_specs(config: &ChaosConfig) -> Result<Vec<JobSpec>, SimError> {
    let mut specs = service_soak::job_specs(&config.soak)?;
    for (j, spec) in specs.iter_mut().enumerate() {
        spec.update_dim = config.update_dim;
        spec.watchdog = Some(watchdog());
        if faulted(j) {
            spec.faults = Some(FaultPlan::chaos(derive_seed(config.fault_seed, j as u64)));
            spec.name.push_str("-chaos");
        }
    }
    Ok(specs)
}

/// Runs `spec` for `rounds` rounds with a checkpoint/restore interruption at the halfway
/// point — checkpoint, serialise to bytes, decode, restore onto a *fresh* service — and
/// returns the final history fingerprint (to compare against the uninterrupted run's).
///
/// # Errors
///
/// Propagates service and checkpoint-codec failures.
fn interrupted_fingerprint(
    engine: &RoundEngine,
    spec: &JobSpec,
    rounds: usize,
) -> Result<u64, SimError> {
    let half = rounds / 2;
    let service = AuctionService::with_engine(ServiceConfig::default(), engine.clone());
    let id = service.admit(spec.clone())?;
    for _ in 0..half {
        let _ = service.run_round(id);
    }
    let bytes = service.checkpoint(id)?.to_bytes();
    let restored = JobCheckpoint::from_bytes(&bytes)?;
    let resumed = AuctionService::with_engine(ServiceConfig::default(), engine.clone());
    let rid = resumed.restore(spec.clone(), restored)?;
    for _ in half..rounds {
        let _ = resumed.run_round(rid);
    }
    Ok(resumed.close(rid)?.fingerprint())
}

/// One chaos soak: solo reference runs, the interleaved fleet on one shared service, and a
/// per-job checkpoint/restore leg, reported as one table with the three robustness verdicts
/// as columns. Any `NO` in a verdict column fails the run with a typed error.
///
/// # Errors
///
/// Propagates service failures, and fails when a healthy job diverges from solo, a faulted
/// job does not complete every round, or a checkpointed run diverges.
pub(crate) fn run(
    runner: &ScenarioRunner,
    config: &ChaosConfig,
) -> Result<ExperimentReport, SimError> {
    let engine = runner.engine();
    let specs = job_specs(config)?;
    let rounds = config.soak.rounds;
    let solo = service_soak::solo_fingerprints(&engine, &specs, rounds)?;

    // The interleaved fleet: every spec on one shared service, one driver thread per job
    // (the same request/drain rhythm as the service soak).
    let service = AuctionService::with_engine(
        ServiceConfig {
            max_jobs: config.soak.jobs,
            max_pending: 4,
        },
        engine.clone(),
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
                scope.spawn(move || -> Result<(), SimError> {
                    let mut remaining = rounds;
                    while remaining > 0 {
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
        format!(
            "Chaos soak: {} tenants, fault plan on the odd half",
            config.soak.jobs
        ),
        &[
            "job",
            "faulted",
            "rounds",
            "retried rounds",
            "faults",
            "dropouts",
            "quarantined",
            "backoff s",
            "matches solo",
            "checkpoint ok",
        ],
    );
    for (j, (&id, spec)) in ids.iter().zip(&specs).enumerate() {
        let history = service.history(id)?;
        let completed = history.completed();
        let retried = history.rounds.iter().filter(|r| r.attempts > 1).count();
        let faults: usize = history.rounds.iter().map(|r| r.faults.len()).sum();
        let backoff: f64 = history.rounds.iter().map(|r| r.backoff_secs).sum();
        let (dropouts, quarantined) = history
            .rounds
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .fold((0usize, 0usize), |(d, q), s| {
                (d + s.dropouts, q + s.quarantined)
            });
        let matches = history.fingerprint() == solo[j];
        let checkpoint_ok = interrupted_fingerprint(&engine, spec, rounds)? == solo[j];
        table.push_row(&[
            spec.name.clone(),
            if faulted(j) { "yes" } else { "no" }.to_string(),
            completed.to_string(),
            retried.to_string(),
            faults.to_string(),
            dropouts.to_string(),
            quarantined.to_string(),
            format!("{backoff:.2}"),
            if matches { "yes" } else { "NO" }.to_string(),
            if checkpoint_ok { "yes" } else { "NO" }.to_string(),
        ]);

        let fail = |what: &str| {
            Err(SimError::Fl(fmore_fl::FlError::InvalidConfig(format!(
                "chaos soak: job {} {what}",
                spec.name
            ))))
        };
        if !matches {
            return fail("interleaved history diverged from its solo run");
        }
        if !checkpoint_ok {
            return fail("checkpoint/restore run diverged from the uninterrupted run");
        }
        if completed != rounds {
            return fail("did not recover every round within its retry budget");
        }
        if faulted(j) {
            if faults == 0 {
                return fail("ran under a chaos plan but recorded no faults");
            }
            for record in &history.rounds {
                if record.attempts > 1 {
                    if record.retry_errors.len() as u32 != record.attempts - 1 {
                        return fail("recorded retries without their typed errors");
                    }
                    if !record.retry_errors.iter().all(WatchdogSpec::retryable) {
                        return fail("retried a non-retryable error");
                    }
                }
            }
        } else if faults != 0 {
            return fail("is plan-free but recorded injected faults");
        }
    }
    Ok(ExperimentReport {
        name: "chaos-soak",
        tables: vec![table],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_soak_is_deterministic_and_survives() {
        let runner = ScenarioRunner::with_threads(2);
        let a = run(&runner, &ChaosConfig::quick()).unwrap();
        let b = run(&runner, &ChaosConfig::quick()).unwrap();
        assert_eq!(a, b, "the chaos report is bit-stable");
        let md = a.to_markdown();
        assert!(md.contains("-chaos"), "faulted tenants are labelled");
        assert!(!md.contains("NO"), "every verdict column is green");
    }

    #[test]
    fn specs_decorate_the_fleet_and_fault_the_odd_half() {
        let config = ChaosConfig::quick();
        let specs = job_specs(&config).unwrap();
        assert_eq!(specs.len(), config.soak.jobs);
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(spec.update_dim, config.update_dim);
            assert!(spec.watchdog.is_some());
            assert_eq!(spec.faults.is_some(), faulted(j));
            assert_eq!(spec.name.ends_with("-chaos"), faulted(j));
        }
        // Deadline, watchdog and fault plan pass admission at both fidelities.
        for config in [ChaosConfig::quick(), ChaosConfig::paper()] {
            for spec in job_specs(&config).unwrap() {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
        }
        // Faulted jobs draw from distinct fault streams.
        let seeds: std::collections::BTreeSet<_> = specs
            .iter()
            .filter_map(|s| s.faults.as_ref().map(|p| p.seed))
            .collect();
        assert_eq!(seeds.len(), specs.len() / 2);
    }

    #[test]
    fn chaos_rates_actually_fire_in_a_quick_fleet() {
        // Drive the first faulted tenant directly: the chaos preset's rates over a quick
        // fleet must actually exercise injection and the watchdog's retry path, so the
        // soak's green verdicts are not vacuous. (Deterministic: same seeds every run.)
        let config = ChaosConfig::quick();
        let spec = job_specs(&config).unwrap().into_iter().nth(1).unwrap();
        assert!(spec.faults.is_some());
        let engine = ScenarioRunner::with_threads(2).engine();
        let service = AuctionService::with_engine(ServiceConfig::default(), engine);
        let id = service.admit(spec).unwrap();
        for _ in 0..config.soak.rounds {
            let _ = service.run_round(id);
        }
        let history = service.close(id).unwrap();
        assert_eq!(
            history.completed(),
            config.soak.rounds,
            "every round recovered"
        );
        let faults: usize = history.rounds.iter().map(|r| r.faults.len()).sum();
        assert!(faults > 0, "the chaos plan injected nothing");
        assert!(
            history.rounds.iter().any(|r| r.attempts > 1),
            "the watchdog never retried"
        );
    }
}
