//! Seeded, deterministic fault injection for the service round pipeline, plus the
//! watchdog/retry policy that recovers from it.
//!
//! FMore's premise (§I/§VI of the paper) is FL over *unreliable* MEC edge nodes: workers
//! that crash mid-task, stall past any reasonable deadline, vanish between selection and
//! delivery, or hand back garbage updates. The service survives all of these by
//! construction (errors-not-panics, per-job isolation), but nothing so far could *provoke*
//! them on demand — and an untested recovery path is a broken recovery path.
//!
//! This module is the provoker. A [`FaultPlan`] attached to a
//! [`JobSpec`](crate::service::JobSpec) describes fault rates, and decides each fault from
//! a [`DrawClock`] that turns the plan's one seed word into per-`(job, round, attempt,
//! slot)` uniform draws with exactly the same keyed-draw discipline
//! ([`keyed_unit`]) as the straggler draws of
//! [`DeadlineSpec`](crate::service::DeadlineSpec). Two consequences fall out of that
//! discipline:
//!
//! * **Chaos is replayable.** The same spec injects the same faults at the same slots in
//!   every run, at every pool width, beside any neighbours — so chaos runs are pinned by
//!   the same bit-identical golden/determinism machinery as healthy runs.
//! * **Retries can draw clean.** Draws are keyed by the *attempt* as well as the round, so
//!   a watchdog retry of a faulted round re-executes against fresh fault draws while the
//!   auction RNG (keyed by `(seed, round)` only) replays identically — a recovered round
//!   is bit-identical to a round that never faulted.
//!
//! The recovery side lives in [`WatchdogSpec`]: a per-round simulated-time budget whose
//! overrun becomes a typed [`FlError::RoundTimeout`], a bounded retry count, and a
//! deterministic exponential backoff that is *accounted* (recorded in the
//! [`RoundRecord`](crate::service::RoundRecord)) rather than slept, keeping chaos suites
//! fast and bit-stable.

use crate::error::FlError;
use fmore_numerics::rng::{derive_seed, keyed_unit};

/// How a corrupted model update is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The first parameter becomes `NaN` (a silently poisonous value).
    Nan,
    /// Every parameter becomes `+∞`.
    Inf,
    /// Every parameter is multiplied by [`FaultPlan::corrupt_scale`] (a norm outlier that
    /// stays finite — the screening policy must catch it by magnitude, not by `is_finite`).
    Scale,
}

impl Corruption {
    /// Applies this corruption to a parameter vector in place.
    pub(crate) fn apply(self, params: &mut [f64], scale: f64) {
        match self {
            Corruption::Nan => {
                if let Some(first) = params.first_mut() {
                    *first = f64::NAN;
                }
            }
            Corruption::Inf => params.fill(f64::INFINITY),
            Corruption::Scale => {
                for p in params.iter_mut() {
                    *p *= scale;
                }
            }
        }
    }
}

/// The kind of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A bid-collection shard panicked on its worker (slot = the shard's start index).
    FillPanic,
    /// A per-winner work task panicked on its worker.
    WorkPanic,
    /// A per-winner work task stalled: [`FaultPlan::stall_secs`] simulated seconds are
    /// charged to the round (tripping the watchdog budget), and the task briefly parks its
    /// worker for real so the executor's stall diagnostics see genuine dead time.
    Stall,
    /// A winner dropped out mid-round: its update and payment are forfeited.
    Dropout,
    /// A winner's model update came back corrupted.
    CorruptUpdate(Corruption),
}

/// One injected fault, recorded as a typed entry in the round's
/// [`RoundRecord`](crate::service::RoundRecord).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The attempt (0-based) during which the fault fired.
    pub attempt: u32,
    /// The slot the fault hit: a winner slot, or the shard start index for
    /// [`FaultKind::FillPanic`].
    pub slot: usize,
    /// What was injected.
    pub kind: FaultKind,
}

/// A job's fault-injection plan: per-stage fault rates, all derived from one seed word.
///
/// Rates are per-slot (or per-shard, for fill panics) Bernoulli probabilities evaluated
/// against the job's [`DrawClock`]. A plan is pure data — attaching it to a spec changes the
/// job's history only through the faults it injects, and two jobs with the same plan but
/// different job seeds draw independent fault streams.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed word of the fault stream (independent of the job's auction seed).
    pub seed: u64,
    /// Probability a bid-collection shard panics on its worker.
    pub fill_panic_rate: f64,
    /// Probability a per-winner work task panics.
    pub panic_rate: f64,
    /// Probability a per-winner work task stalls.
    pub stall_rate: f64,
    /// Simulated seconds one stall charges to the round (the watchdog's trigger).
    pub stall_secs: f64,
    /// Probability a winner drops out mid-round (after the deadline gate).
    pub dropout_rate: f64,
    /// Probability a winner's update is corrupted before aggregation.
    pub corrupt_rate: f64,
    /// Multiplier used by [`Corruption::Scale`].
    pub corrupt_scale: f64,
    /// Attempts (0-based, exclusive bound) in which injection is active: `1` means faults
    /// fire on the first attempt only, so every watchdog retry executes clean — the
    /// configuration chaos suites use to *guarantee* recovery within the retry budget.
    /// `u32::MAX` keeps faults active on every attempt.
    pub faulty_attempts: u32,
}

impl FaultPlan {
    /// The chaos-soak preset: every fault class active at rates that hit a quick-fidelity
    /// fleet hard, first attempt only (retries are clean, so recovery is structural).
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            fill_panic_rate: 0.10,
            panic_rate: 0.15,
            stall_rate: 0.20,
            stall_secs: 30.0,
            dropout_rate: 0.15,
            corrupt_rate: 0.25,
            corrupt_scale: 1e9,
            faulty_attempts: 1,
        }
    }

    /// Validates the plan's rates and budgets. Every rate must be a probability in
    /// `[0, 1]`; `panic_rate + stall_rate` share one draw and must sum to at most `1`
    /// (otherwise the stall band is silently truncated); stall charges and the corruption
    /// scale must be finite and non-negative. Checked at service admission, so a
    /// malformed plan is a typed [`FlError::InvalidConfig`] before any draw happens.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), FlError> {
        validate_rates(
            "fault plan",
            &[
                &[("fill_panic_rate", self.fill_panic_rate)],
                &[
                    ("panic_rate", self.panic_rate),
                    ("stall_rate", self.stall_rate),
                ],
                &[("dropout_rate", self.dropout_rate)],
                &[("corrupt_rate", self.corrupt_rate)],
            ],
        )?;
        validate_at_least("fault plan", "stall_secs", self.stall_secs, 0.0)?;
        if !self.corrupt_scale.is_finite() {
            return Err(FlError::InvalidConfig(format!(
                "fault plan corrupt_scale {} must be finite",
                self.corrupt_scale
            )));
        }
        Ok(())
    }

    /// This attempt's draw on channel `ch` for `slot`, or `None` when the plan is not active
    /// on `attempt`.
    fn draw(&self, clock: &DrawClock, round: u64, attempt: u32, slot: u64, ch: u64) -> Option<f64> {
        (attempt < self.faulty_attempts)
            .then(|| clock.uniform(&[round, u64::from(attempt) + 1, slot + 1, ch]))
    }

    /// Whether the bid-collection shard starting at `shard_start` panics this attempt.
    pub(crate) fn fill_panics(
        &self,
        clock: &DrawClock,
        round: u64,
        attempt: u32,
        shard_start: usize,
    ) -> bool {
        self.draw(clock, round, attempt, shard_start as u64, CH_FILL_PANIC)
            .is_some_and(|u| u < self.fill_panic_rate)
    }

    /// The fault (if any) injected into winner `slot`'s work task this attempt: one draw
    /// split between [`FaultKind::WorkPanic`] and [`FaultKind::Stall`], so a slot never
    /// both panics and stalls.
    pub(crate) fn work_fault(
        &self,
        clock: &DrawClock,
        round: u64,
        attempt: u32,
        slot: usize,
    ) -> Option<FaultKind> {
        let u = self.draw(clock, round, attempt, slot as u64, CH_WORK)?;
        if u < self.panic_rate {
            Some(FaultKind::WorkPanic)
        } else if u < self.panic_rate + self.stall_rate {
            Some(FaultKind::Stall)
        } else {
            None
        }
    }

    /// Whether winner `slot` drops out mid-round this attempt.
    pub(crate) fn drops_out(
        &self,
        clock: &DrawClock,
        round: u64,
        attempt: u32,
        slot: usize,
    ) -> bool {
        self.draw(clock, round, attempt, slot as u64, CH_DROPOUT)
            .is_some_and(|u| u < self.dropout_rate)
    }

    /// The corruption (if any) applied to winner `slot`'s update this attempt; the
    /// corruption kind is a second, independent draw split evenly three ways.
    pub(crate) fn corruption(
        &self,
        clock: &DrawClock,
        round: u64,
        attempt: u32,
        slot: usize,
    ) -> Option<Corruption> {
        let hit = self.draw(clock, round, attempt, slot as u64, CH_CORRUPT)?;
        if hit >= self.corrupt_rate {
            return None;
        }
        let kind = self.draw(clock, round, attempt, slot as u64, CH_CORRUPT_KIND)?;
        Some(if kind < 1.0 / 3.0 {
            Corruption::Nan
        } else if kind < 2.0 / 3.0 {
            Corruption::Inf
        } else {
            Corruption::Scale
        })
    }
}

// Draw channels: distinct words folded into the seed chain so each fault class draws an
// independent uniform per (round, attempt, slot).
const CH_FILL_PANIC: u64 = 0xF1;
const CH_WORK: u64 = 0xF2;
const CH_DROPOUT: u64 = 0xF3;
const CH_CORRUPT: u64 = 0xF4;
const CH_CORRUPT_KIND: u64 = 0xF5;

/// The deterministic draw stream of one job under one plan: uniforms in `[0, 1)` that are
/// pure functions of `(plan seed ⊕ job seed, keys)` ([`keyed_unit`]). [`FaultPlan`] keys
/// its draws by `(round, attempt, slot, channel)`; [`AdversaryPlan`](crate::AdversaryPlan)
/// by `(round, node, channel)`, with no attempt key (see [`crate::adversary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawClock {
    root: u64,
}

impl DrawClock {
    /// Binds a plan's seed word to a job: the root mixes it with the job's auction seed, so
    /// two jobs sharing one plan still draw independently.
    pub fn new(plan_seed: u64, job_seed: u64) -> Self {
        Self {
            root: derive_seed(plan_seed, job_seed),
        }
    }

    /// The draw keyed by `keys`.
    pub(crate) fn uniform(&self, keys: &[u64]) -> f64 {
        keyed_unit(self.root, keys)
    }
}

/// A job's round watchdog: the per-round simulated-time budget and the bounded
/// retry/backoff policy applied when a round fails retryably.
///
/// The budget is checked against *simulated* seconds (the deadline model's wave time plus
/// injected stall charges), never wall-clock — a watchdog that raced real threads would
/// make chaos histories flaky, and the whole point is that they are pinned. Backoff is
/// likewise deterministic accounting: `backoff_base_secs · backoff_factor^attempt` per
/// retry, summed into [`RoundRecord::backoff_secs`](crate::service::RoundRecord), with no
/// real sleeping.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogSpec {
    /// Simulated seconds one round attempt may spend before it is declared wedged and
    /// fails with [`FlError::RoundTimeout`].
    pub round_budget_secs: f64,
    /// Retries allowed after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff charged for the first retry, in simulated seconds.
    pub backoff_base_secs: f64,
    /// Multiplicative backoff growth per further retry.
    pub backoff_factor: f64,
}

impl WatchdogSpec {
    /// Validates the budget and backoff: `round_budget_secs` and `backoff_base_secs` must
    /// be finite and non-negative (a NaN budget never trips, a NaN base poisons every
    /// backoff), `backoff_factor` finite and at least 1.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), FlError> {
        validate_at_least("watchdog", "round_budget_secs", self.round_budget_secs, 0.0)?;
        validate_at_least("watchdog", "backoff_base_secs", self.backoff_base_secs, 0.0)?;
        validate_at_least("watchdog", "backoff_factor", self.backoff_factor, 1.0)
    }

    /// The backoff charged before retrying failed attempt `attempt` (0-based).
    pub(crate) fn backoff_secs(&self, attempt: u32) -> f64 {
        self.backoff_base_secs * self.backoff_factor.powi(attempt as i32)
    }

    /// Whether an error is worth retrying: transient round-scoped failures (a panicked
    /// task, a blown round budget, a fully quarantined aggregation, a fully excluded bid
    /// pool) are; structural failures (bad config, unknown ids, admission/backpressure)
    /// never heal by retry.
    pub fn retryable(error: &FlError) -> bool {
        matches!(
            error,
            FlError::JobPanic(_)
                | FlError::RoundTimeout { .. }
                | FlError::AllUpdatesQuarantined { .. }
                | FlError::AllBiddersExcluded { .. }
        )
    }
}

/// Validates `owner`'s probability fields, grouped into families of rates that split one
/// uniform draw between them (a lone rate is a family of one): every rate must lie in
/// `[0, 1]`, and each family must sum to at most 1, or its later bands would be silently
/// truncated.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] naming the offending field or family.
pub(crate) fn validate_rates(owner: &str, families: &[&[(&str, f64)]]) -> Result<(), FlError> {
    for family in families {
        for &(name, rate) in *family {
            if !(0.0..=1.0).contains(&rate) {
                return Err(FlError::InvalidConfig(format!(
                    "{owner} {name} {rate} must lie in [0, 1]"
                )));
            }
        }
        let total: f64 = family.iter().map(|&(_, rate)| rate).sum();
        if total > 1.0 {
            let names: Vec<&str> = family.iter().map(|&(name, _)| name).collect();
            return Err(FlError::InvalidConfig(format!(
                "{owner} {} sum to {total} > 1 (they share one draw)",
                names.join(" + ")
            )));
        }
    }
    Ok(())
}

/// `Ok` when `owner`'s field `name` is finite and at least `min`.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] naming the field otherwise (NaN included).
pub(crate) fn validate_at_least(
    owner: &str,
    name: &str,
    value: f64,
    min: f64,
) -> Result<(), FlError> {
    if value.is_finite() && value >= min {
        return Ok(());
    }
    Err(FlError::InvalidConfig(format!(
        "{owner} {name} {value} must be finite and >= {min}"
    )))
}

#[cfg(test)]
impl WatchdogSpec {
    /// A forgiving default: a minute of simulated budget, three retries, 1 s → 2 s → 4 s
    /// backoff.
    pub(crate) fn standard() -> Self {
        Self {
            round_budget_secs: 60.0,
            max_retries: 3,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_attempt_keyed() {
        let plan = FaultPlan::chaos(99);
        let clock = DrawClock::new(plan.seed, 7);
        for slot in 0..32 {
            assert_eq!(
                plan.work_fault(&clock, 3, 0, slot),
                plan.work_fault(&clock, 3, 0, slot),
                "same key, same draw"
            );
        }
        // With faulty_attempts = 1 every retry attempt is clean by construction.
        for slot in 0..64 {
            assert_eq!(plan.work_fault(&clock, 3, 1, slot), None);
            assert!(!plan.drops_out(&clock, 3, 2, slot));
            assert_eq!(plan.corruption(&clock, 3, 1, slot), None);
            assert!(!plan.fill_panics(&clock, 3, 1, slot));
        }
        let mut unlimited = plan.clone();
        unlimited.faulty_attempts = u32::MAX;
        let faults_on_retry = (0..64)
            .filter(|&slot| unlimited.work_fault(&clock, 3, 1, slot).is_some())
            .count();
        assert!(faults_on_retry > 0, "unlimited plans keep faulting retries");
    }

    #[test]
    fn rates_are_respected_in_aggregate() {
        let plan = FaultPlan::chaos(1234);
        let clock = DrawClock::new(plan.seed, 1);
        let n = 4000;
        let drops = (0..n)
            .filter(|&slot| plan.drops_out(&clock, 1, 0, slot))
            .count();
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - plan.dropout_rate).abs() < 0.03,
            "empirical dropout rate {rate} strays from {}",
            plan.dropout_rate
        );
        // Different jobs sharing one plan draw independent streams.
        let other = DrawClock::new(plan.seed, 2);
        let agree = (0..n)
            .filter(|&slot| {
                plan.drops_out(&clock, 1, 0, slot) == plan.drops_out(&other, 1, 0, slot)
            })
            .count();
        assert!(agree < n, "two jobs' fault streams must differ");
    }

    #[test]
    fn corruption_kinds_all_occur_and_apply() {
        let plan = FaultPlan::chaos(5);
        let clock = DrawClock::new(plan.seed, 9);
        let mut seen = [false; 3];
        for slot in 0..2000 {
            match plan.corruption(&clock, 1, 0, slot) {
                Some(Corruption::Nan) => seen[0] = true,
                Some(Corruption::Inf) => seen[1] = true,
                Some(Corruption::Scale) => seen[2] = true,
                None => {}
            }
        }
        assert_eq!(seen, [true; 3], "all three corruption kinds drawn");

        let mut params = vec![1.0, 2.0];
        Corruption::Nan.apply(&mut params, 1e9);
        assert!(params[0].is_nan() && params[1] == 2.0);
        let mut params = vec![1.0, 2.0];
        Corruption::Inf.apply(&mut params, 1e9);
        assert!(params.iter().all(|p| p.is_infinite()));
        let mut params = vec![1.0, 2.0];
        Corruption::Scale.apply(&mut params, 1e9);
        assert_eq!(params, vec![1e9, 2e9]);
    }

    #[test]
    fn watchdog_backoff_is_exponential_and_retryability_is_typed() {
        let w = WatchdogSpec::standard();
        assert_eq!(w.backoff_secs(0), 1.0);
        assert_eq!(w.backoff_secs(1), 2.0);
        assert_eq!(w.backoff_secs(2), 4.0);
        assert!(WatchdogSpec::retryable(&FlError::RoundTimeout {
            round: 1,
            sim_secs: 90.0,
            budget_secs: 60.0,
        }));
        assert!(WatchdogSpec::retryable(&FlError::JobPanic(
            crate::executor::JobPanic {
                slot: 0,
                message: "boom".into(),
            }
        )));
        assert!(WatchdogSpec::retryable(&FlError::AllUpdatesQuarantined {
            quarantined: 4
        }));
        assert!(WatchdogSpec::retryable(&FlError::AllBiddersExcluded {
            excluded: 12
        }));
        assert!(!WatchdogSpec::retryable(&FlError::UnknownJob(3)));
        assert!(!WatchdogSpec::retryable(&FlError::InvalidConfig(
            "x".into()
        )));
    }

    #[test]
    fn plan_validation_rejects_out_of_range_rates_and_budgets() {
        assert!(FaultPlan::chaos(1).validate().is_ok());
        type Mutation = Box<dyn Fn(&mut FaultPlan)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("fill_panic_rate", Box::new(|p| p.fill_panic_rate = 1.5)),
            ("panic_rate", Box::new(|p| p.panic_rate = -0.1)),
            ("stall_rate", Box::new(|p| p.stall_rate = f64::NAN)),
            ("dropout_rate", Box::new(|p| p.dropout_rate = 2.0)),
            ("corrupt_rate", Box::new(|p| p.corrupt_rate = -1.0)),
            (
                "one-draw budget",
                Box::new(|p| {
                    p.panic_rate = 0.7;
                    p.stall_rate = 0.7;
                }),
            ),
            ("stall_secs", Box::new(|p| p.stall_secs = -1.0)),
            ("stall_secs", Box::new(|p| p.stall_secs = f64::INFINITY)),
            ("corrupt_scale", Box::new(|p| p.corrupt_scale = f64::NAN)),
        ];
        for (what, poison) in cases {
            let mut plan = FaultPlan::chaos(1);
            poison(&mut plan);
            let err = plan.validate().unwrap_err();
            assert!(
                matches!(err, FlError::InvalidConfig(_)),
                "{what}: expected InvalidConfig, got {err}"
            );
        }
    }
}
