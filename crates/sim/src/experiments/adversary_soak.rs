//! The `adversary-soak` registry entry: Byzantine bidders inside the always-on service.
//!
//! Two legs, one report:
//!
//! * **Convergence study** — a self-contained descent toward a known optimum with ~30 % of
//!   the members Byzantine (seeded sign-flips, 25× scaled gradients, free-riding zero
//!   updates). Every [`AggregationRule`] aggregates the same poisoned batches; the robust
//!   rules must finish within 5 accuracy points of the clean run while plain FedAvg
//!   degrades by more than 5 points under the identical attack.
//! * **Fleet with a reputation loop** — the service-soak fleet with an
//!   [`AdversaryPlan::byzantine`] on the odd half of its tenants: untruthful bids
//!   (overbids, predatory underbids, quality misreports, a seeded cartel) plus poisoned
//!   updates, screened by per-job robust rules whose quarantine verdicts feed a
//!   [`fmore_fl::ReputationSpec`] ledger back into bid selection. The soak asserts that
//!   every tenant's interleaved history is bit-identical to its solo run, that the
//!   adversarial jobs actually quarantine something, and that the reputation loop drives
//!   the adversarial win-rate down from the early to the late half of the run.
//!
//! Everything is a pure function of the committed seeds: both legs replay bit-for-bit at
//! any pool width, so the verdict columns are stable across machines and runs.

use crate::error::SimError;
use crate::experiments::registry::ExperimentReport;
use crate::experiments::service_soak::{self, SoakConfig};
use crate::scenario::ScenarioRunner;
use crate::series::Table;
use fmore_fl::service::{AuctionService, JobSpec, ServiceConfig};
use fmore_fl::{
    AdversaryPlan, AggregationRule, AggregationScratch, CoordinateMedian, DrawClock, FedAvg, Krum,
    MedianNormScreen, ReputationSpec, ScreenPolicy, TrimmedMean,
};
use fmore_numerics::rng::{derive_seed, keyed_unit};
use std::sync::Arc;

/// Configuration of the adversary soak: the convergence study's shape plus the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// The underlying fleet (jobs, rounds, populations, schemes).
    pub soak: SoakConfig,
    /// Dimension of the synthetic per-winner model updates (the poisons' target surface).
    pub update_dim: usize,
    /// Members of the convergence study's aggregation panel.
    pub panel: usize,
    /// Rounds of descent in the convergence study.
    pub descent_rounds: usize,
    /// Root seed of the adversary streams; job `j` draws from
    /// `derive_seed(adversary_seed, j)`.
    pub adversary_seed: u64,
}

impl AdversaryConfig {
    /// Sub-second configuration for tests, CI, and the golden suite.
    pub fn quick() -> Self {
        Self {
            soak: SoakConfig {
                // The reputation loop only bites when a caught node would otherwise
                // re-win: a small bidder pool (repeat offenders dominate the book) and
                // more rounds than the plain service soak (time to learn who poisons).
                population: 64,
                shard_size: 32,
                rounds: 8,
                ..SoakConfig::quick()
            },
            update_dim: 8,
            panel: 10,
            descent_rounds: 20,
            adversary_seed: 0xADE7,
        }
    }

    /// The heavy soak: the eight-tenant paper fleet under the same adversary rates.
    pub fn paper() -> Self {
        Self {
            soak: SoakConfig::paper(),
            update_dim: 32,
            panel: 16,
            descent_rounds: 40,
            adversary_seed: 0xADE7,
        }
    }
}

/// Whether fleet job `j` runs under an active adversary plan (the odd half, mirroring the
/// chaos soak's layout so healthy/adversarial tenants alternate on the shared pool).
fn adversarial(j: usize) -> bool {
    j % 2 == 1
}

/// The robust rule assigned to adversarial fleet job `j` — cycled so one soak covers every
/// distance-screening backend against live bid distortion and update poisoning.
fn fleet_rule(j: usize) -> Arc<dyn AggregationRule> {
    match (j / 2) % 3 {
        0 => Arc::new(CoordinateMedian::default()),
        1 => Arc::new(TrimmedMean::new(2)),
        _ => Arc::new(Krum::new(2)),
    }
}

/// Builds the adversary fleet: the service-soak specs with synthetic updates everywhere
/// and, on the odd half, a Byzantine adversary plan + reputation ledger + robust
/// aggregation (whose names gain an `-adv` suffix).
///
/// # Errors
///
/// Propagates population and solver construction failures.
pub fn job_specs(config: &AdversaryConfig) -> Result<Vec<JobSpec>, SimError> {
    let mut specs = service_soak::job_specs(&config.soak)?;
    for (j, spec) in specs.iter_mut().enumerate() {
        spec.update_dim = config.update_dim;
        if adversarial(j) {
            spec.adversaries = Some(AdversaryPlan::byzantine(derive_seed(
                config.adversary_seed,
                j as u64,
            )));
            spec.reputation = Some(ReputationSpec::strict());
            spec.aggregation = fleet_rule(j);
            spec.name.push_str("-adv");
        }
    }
    Ok(specs)
}

/// One descent curve: `descent_rounds` rounds of noisy steps toward the all-threes optimum,
/// aggregated by `rule`, with `plan`'s seeded members poisoning their updates. Returns the
/// final accuracy (100 at the optimum, 0 at or beyond the start) and the total quarantines.
fn descend(
    config: &AdversaryConfig,
    rule: &dyn AggregationRule,
    plan: &AdversaryPlan,
) -> (f64, usize) {
    const DIM: usize = 16;
    const LR: f64 = 0.3;
    let clock = DrawClock::new(plan.seed, 0x5EED);
    let target = vec![3.0; DIM];
    let mut w = [0.0; DIM];
    let start_dist: f64 = target.iter().map(|t| t * t).sum::<f64>().sqrt();
    let mut scratch = AggregationScratch::new();
    let mut out = Vec::new();
    let mut quarantined = 0;
    for round in 1..=config.descent_rounds as u64 {
        let updates: Vec<Vec<f64>> = (0..config.panel as u64)
            .map(|member| {
                let mut params: Vec<f64> = (0..DIM)
                    .map(|d| {
                        // The honest gradient noise, keyed by (round, member, coordinate).
                        let keys = [round, member.wrapping_add(1), d as u64 + 1];
                        let noise = (keyed_unit(plan.seed, &keys) - 0.5) * 0.02;
                        w[d] + LR * (target[d] - w[d]) + noise
                    })
                    .collect();
                if let Some(poison) = plan.update_poison(&clock, round, member) {
                    poison.apply(plan, &mut params);
                }
                params
            })
            .collect();
        let borrowed: Vec<(&[f64], f64)> = updates.iter().map(|u| (u.as_slice(), 1.0)).collect();
        // A fully quarantined round (the Err arm) publishes nothing: the model carries
        // over, exactly as the service's retry path leaves the global model untouched.
        if let Ok(screened) = rule.aggregate_with(&borrowed, &mut out, &mut scratch) {
            quarantined += screened.quarantined.len();
            if !out.is_empty() {
                w.copy_from_slice(&out);
            }
        }
    }
    let dist: f64 = w
        .iter()
        .zip(&target)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let accuracy = 100.0 * (1.0 - (dist / start_dist).min(1.0));
    (accuracy, quarantined)
}

/// The convergence study's aggregation panel: every rule the crate ships, with the three
/// distance-screening backends flagged as the ones the ≤ 5-point verdict gates on. The
/// median-norm screen is weight- and direction-blind (a sign-flipped update keeps its
/// norm), so it rides along unjudged — the table still shows how far it gets.
fn panel() -> Vec<(Arc<dyn AggregationRule>, bool)> {
    vec![
        (Arc::new(FedAvg), false),
        (Arc::new(MedianNormScreen(ScreenPolicy::default())), false),
        (Arc::new(CoordinateMedian::default()), true),
        (Arc::new(TrimmedMean::new(3)), true),
        (Arc::new(Krum::new(3)), true),
    ]
}

/// The adversarial winner share of one completed round, recomputed from the committed
/// seeds: membership is a pure function of `(plan seed ⊕ job seed, node)`.
fn adversarial_wins(
    clock: &DrawClock,
    plan: &AdversaryPlan,
    summary: &fmore_fl::service::RoundSummary,
) -> usize {
    summary
        .winners
        .iter()
        .filter(|w| plan.is_adversary(clock, w.node.0))
        .count()
}

/// One adversary soak: the convergence panel, then the interleaved fleet with solo
/// reference runs, reported as two tables. Any `NO` in a verdict column fails the run with
/// a typed error.
///
/// # Errors
///
/// Propagates service failures, and fails when a robust rule drifts more than 5 points
/// from clean, FedAvg fails to degrade under attack, any tenant diverges from its solo
/// run, an adversarial job never quarantines, or the adversarial win-rate fails to fall.
pub(crate) fn run(
    runner: &ScenarioRunner,
    config: &AdversaryConfig,
) -> Result<ExperimentReport, SimError> {
    let fail = |what: String| Err(SimError::Fl(fmore_fl::FlError::InvalidConfig(what)));

    // Leg 1: the convergence study. Clean reference = FedAvg with an all-honest plan.
    let honest = AdversaryPlan::honest(0xBEE5);
    let attack = AdversaryPlan::byzantine(0xBEE5);
    let (clean, _) = descend(config, &FedAvg, &honest);
    let mut convergence = Table::new(
        format!(
            "Byzantine convergence: {}-member panel, {} rounds, ~30% poisoned",
            config.panel, config.descent_rounds
        ),
        &[
            "rule",
            "clean acc",
            "attacked acc",
            "gap",
            "quarantined",
            "verdict",
        ],
    );
    for (rule, judged) in panel() {
        let (attacked, quarantined) = descend(config, rule.as_ref(), &attack);
        let gap = clean - attacked;
        let verdict = if judged {
            if gap <= 5.0 {
                "robust"
            } else {
                "NO"
            }
        } else if rule.name() == "fedavg" {
            if gap > 5.0 {
                "degrades"
            } else {
                "NO"
            }
        } else {
            "unjudged"
        };
        convergence.push_row(&[
            rule.name().to_string(),
            format!("{clean:.1}"),
            format!("{attacked:.1}"),
            format!("{gap:.1}"),
            quarantined.to_string(),
            verdict.to_string(),
        ]);
        if judged && gap > 5.0 {
            return fail(format!(
                "adversary soak: rule {} drifted {gap:.1} points from clean (> 5)",
                rule.name()
            ));
        }
        if rule.name() == "fedavg" && gap <= 5.0 {
            return fail(format!(
                "adversary soak: plain FedAvg lost only {gap:.1} points under attack — \
                 the poison stream is vacuous"
            ));
        }
    }

    // Leg 2: the fleet. Solo reference runs, then every spec interleaved on one service.
    let engine = runner.engine();
    let specs = job_specs(config)?;
    let rounds = config.soak.rounds;
    let solo = service_soak::solo_fingerprints(&engine, &specs, rounds)?;
    let service = AuctionService::with_engine(
        ServiceConfig {
            max_jobs: config.soak.jobs,
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

    let mut fleet = Table::new(
        format!(
            "Adversary soak: {} tenants, Byzantine plan + reputation on the odd half",
            config.soak.jobs
        ),
        &[
            "job",
            "rule",
            "adversarial",
            "rounds",
            "quarantined",
            "adv wins early",
            "adv wins late",
            "matches solo",
        ],
    );
    let half = rounds / 2;
    let (mut early_total, mut late_total) = (0usize, 0usize);
    let mut fleet_quarantined = 0usize;
    for (j, (&id, spec)) in ids.iter().zip(&specs).enumerate() {
        let history = service.history(id)?;
        let completed = history.completed();
        let quarantined: usize = history
            .rounds
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|s| s.quarantined)
            .sum();
        let (mut early, mut late) = (0usize, 0usize);
        if let Some(plan) = &spec.adversaries {
            let clock = DrawClock::new(plan.seed, spec.seed);
            for record in &history.rounds {
                if let Ok(summary) = &record.outcome {
                    let wins = adversarial_wins(&clock, plan, summary);
                    if (record.round as usize) <= half {
                        early += wins;
                    } else {
                        late += wins;
                    }
                }
            }
            early_total += early;
            late_total += late;
            fleet_quarantined += quarantined;
        }
        let matches = history.fingerprint() == solo[j];
        fleet.push_row(&[
            spec.name.clone(),
            spec.aggregation.name().to_string(),
            if adversarial(j) { "yes" } else { "no" }.to_string(),
            completed.to_string(),
            quarantined.to_string(),
            early.to_string(),
            late.to_string(),
            if matches { "yes" } else { "NO" }.to_string(),
        ]);
        if !matches {
            return fail(format!(
                "adversary soak: job {} interleaved history diverged from its solo run",
                spec.name
            ));
        }
        if completed != rounds {
            return fail(format!(
                "adversary soak: job {} completed {completed}/{rounds} rounds",
                spec.name
            ));
        }
        if !adversarial(j) && quarantined != 0 {
            return fail(format!(
                "adversary soak: healthy job {} quarantined {quarantined} updates",
                spec.name
            ));
        }
    }
    if fleet_quarantined == 0 {
        return fail("adversary soak: no adversarial job quarantined anything".to_string());
    }
    if late_total >= early_total {
        return fail(format!(
            "adversary soak: adversarial wins did not fall ({early_total} early vs \
             {late_total} late) — the reputation loop is not biting"
        ));
    }

    Ok(ExperimentReport {
        name: "adversary-soak",
        tables: vec![convergence, fleet],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_adversary_soak_is_deterministic_and_green() {
        let runner = ScenarioRunner::with_threads(2);
        let a = run(&runner, &AdversaryConfig::quick()).unwrap();
        let b = run(&runner, &AdversaryConfig::quick()).unwrap();
        assert_eq!(a, b, "the adversary report is bit-stable");
        let md = a.to_markdown();
        assert!(md.contains("-adv"), "adversarial tenants are labelled");
        assert!(md.contains("robust"), "robust verdicts are rendered");
        assert!(md.contains("degrades"), "the FedAvg contrast is rendered");
        assert!(!md.contains("NO"), "every verdict column is green");
    }

    #[test]
    fn specs_decorate_the_fleet_on_the_odd_half() {
        let config = AdversaryConfig::quick();
        let specs = job_specs(&config).unwrap();
        assert_eq!(specs.len(), config.soak.jobs);
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(spec.update_dim, config.update_dim);
            assert_eq!(spec.adversaries.is_some(), adversarial(j));
            assert_eq!(spec.reputation.is_some(), adversarial(j));
            assert_eq!(spec.name.ends_with("-adv"), adversarial(j));
            if adversarial(j) {
                assert_ne!(spec.aggregation.name(), "median-norm");
            }
        }
        // Deadline, adversary plan, reputation and rule pass admission at both fidelities.
        for config in [AdversaryConfig::quick(), AdversaryConfig::paper()] {
            for spec in job_specs(&config).unwrap() {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
        }
        // Adversarial jobs draw from distinct seed streams.
        let seeds: std::collections::BTreeSet<_> = specs
            .iter()
            .filter_map(|s| s.adversaries.as_ref().map(|p| p.seed))
            .collect();
        assert_eq!(seeds.len(), specs.len() / 2);
    }

    #[test]
    fn descent_attack_actually_poisons_the_panel() {
        // The committed seeds must mark a real (non-empty, non-total) Byzantine minority,
        // so the convergence verdicts are not vacuous.
        let config = AdversaryConfig::quick();
        let attack = AdversaryPlan::byzantine(0xBEE5);
        let clock = DrawClock::new(attack.seed, 0x5EED);
        let byzantine = (0..config.panel as u64)
            .filter(|&m| attack.is_adversary(&clock, m))
            .count();
        assert!(byzantine > 0, "no panel member is Byzantine");
        assert!(
            byzantine * 2 < config.panel,
            "the Byzantine minority ({byzantine}/{}) must stay a minority",
            config.panel
        );
    }
}
